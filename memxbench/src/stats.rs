//! Order statistics and process measurements shared by every workload.

use std::time::{Duration, Instant};

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), linear interpolation between
/// closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method), so the steadiness report reads
/// the same numbers an external checker computes.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = (n + 1) as f64;
    let cut = |j: f64| {
        let pos = j * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    (cut(1.0), cut(2.0), cut(3.0))
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` several times and returns the last result with every
/// repetition's duration in seconds: at least `min_reps` times, and more
/// (up to 200) while the repetitions together took under half a second,
/// so that a millisecond-scale set-up still yields a steady median.
pub fn setup_times<T>(
    min_reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= min_reps
            && (started.elapsed() >= Duration::from_millis(500) || times.len() >= 200);
        if enough {
            return Ok((value, times));
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median time of [`host_probe`] on the 2-vCPU host the benchmark was
/// sized on; batch times are reported in seconds of that host.
const PROBE_REF_S: f64 = 0.015;

/// A fixed CPU workload owned by the benchmark, so no change to the
/// program moves it: a seeded hot/cold address stream through a 256-set,
/// 2-way LRU tag array, the kind of branchy, cache-resident work the batch
/// passes do. Returns its duration in seconds.
pub fn host_probe() -> f64 {
    let t = Instant::now();
    let mut tags = [u64::MAX; 512];
    let mut mru = [0u8; 256];
    let mut hits = 0u64;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = if x & 15 != 0 {
            x & 0xffff
        } else {
            x & 0xff_ffff
        };
        let line = addr >> 5;
        let set = (line & 255) as usize;
        let tag = line >> 8;
        if tags[2 * set] == tag {
            mru[set] = 0;
            hits += 1;
        } else if tags[2 * set + 1] == tag {
            mru[set] = 1;
            hits += 1;
        } else {
            let victim = 1 - mru[set] as usize;
            tags[2 * set + victim] = tag;
            mru[set] = victim as u8;
        }
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64()
}

/// A timed window of `seconds`: the first iteration always runs, and each
/// further one only when an iteration of the median length so far is
/// expected to end inside the window, so a run measures for at most about
/// `seconds`.
///
/// The window also samples the host's speed: [`host_probe`] three times
/// when it opens and once between iterations. The host this benchmark was
/// sized on is a shared virtual machine whose speed drifts by a quarter
/// over minutes, moving every CPU-bound time with it;
/// [`host_factor`](Self::host_factor) scales a run's times to the
/// reference speed so that runs minutes apart compare.
pub struct Window {
    start: Instant,
    last: Option<Instant>,
    seconds: f64,
    iters: Vec<f64>,
    probes: Vec<f64>,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        let probes = (0..3).map(|_| host_probe()).collect();
        Window {
            start: Instant::now(),
            last: None,
            seconds,
            iters: Vec::new(),
            probes,
        }
    }

    pub fn more(&mut self) -> bool {
        if self.last.is_some() {
            self.probes.push(host_probe());
        }
        let now = Instant::now();
        if let Some(last) = self.last {
            self.iters.push(now.duration_since(last).as_secs_f64());
        }
        self.last = Some(now);
        self.iters.is_empty()
            || now.duration_since(self.start).as_secs_f64() + median(&self.iters) <= self.seconds
    }

    /// Reference probe time over this run's median probe time: multiply a
    /// CPU-bound time measured in this run by it.
    pub fn host_factor(&self) -> f64 {
        PROBE_REF_S / median(&self.probes)
    }

    pub fn probe_ms(&self) -> f64 {
        median(&self.probes) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles_exclusive;

    /// Values from Python's `statistics.quantiles(values, n=4)`.
    #[test]
    fn quartiles_match_python() {
        assert_eq!(
            quartiles_exclusive(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            (2.75, 5.5, 8.25)
        );
        assert_eq!(quartiles_exclusive(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        assert_eq!(
            quartiles_exclusive(&[3.5, 1.25, 9.0, 4.0, 2.0]),
            (1.625, 3.5, 6.5)
        );
    }
}
