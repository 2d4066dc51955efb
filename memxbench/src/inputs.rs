//! Workload inputs, generated in memory from the seed.
//!
//! Seed 0 reads the checked-in kernels (`examples/kernels/*.mx`). Other
//! seeds write each kernel's `.mx` text with its array extents moved
//! within a narrow band that keeps the iteration count within 3% of the
//! checked-in one: a 2-D nest of `N × N` becomes `(N−d) × (N+d)` with
//! `d ∈ {−1, 0, 1}`. Layouts, set conflicts and traces change with the
//! seed while the work per pass stays close.
//!
//! MatMult keeps the checked-in `31³` on every seed. It is four fifths of
//! a `paper_sweep` pass, and its shape alone (a permutation of
//! `30 × 31 × 32` at the same iteration count) moved that pass by a fifth
//! and its peak memory by a factor of two, through how many (T, L) layouts
//! collapse into one trace; that would drown the change a run is meant to
//! see.

use loopir::{parse_kernel, Kernel};
use memsim::din::{write_din, DinLabel, DinRecord};
use memsim::synth::{generate, Pattern};

/// The paper kernels, in the order every workload visits them.
pub const KERNELS: [&str; 8] = [
    "compress", "conv2d", "dequant", "matadd", "matmul", "pde", "sor", "stencil",
];

/// SplitMix64 — a tiny seeded generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Path of a checked-in kernel, relative to the repository root.
pub fn kernel_path(name: &str) -> String {
    format!("examples/kernels/{name}.mx")
}

/// The `.mx` text of kernel `name` for `seed`.
pub fn kernel_text(name: &str, seed: u64) -> Result<String, String> {
    if seed == 0 || name == "matmul" {
        let path = kernel_path(name);
        return std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    // Each kernel draws its own shape, so the choice for one kernel does
    // not depend on which other kernels a workload uses.
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(fnv(name.as_bytes())));
    let d = rng.below(3) as i64 - 1;
    let text = match name {
        "compress" => {
            let (n1, n2) = (31 - d, 31 + d);
            format!(
                "kernel Compress\narray a[{}][{}] elem 4\nfor i = 1 .. {n1}\nfor j = 1 .. {n2}\n\
                 \x20 read  a[i][j]\n  read  a[i-1][j]\n  read  a[i][j-1]\n  read  a[i-1][j-1]\n  write a[i][j]\n",
                n1 + 1,
                n2 + 1
            )
        }
        "conv2d" => {
            let (n1, n2) = (16 - d, 16 + d);
            format!(
                "kernel Conv2D\narray img[{}][{}] elem 4\narray coef[3][3] elem 4\narray out[{n1}][{n2}] elem 4\n\
                 for i = 0 .. {}\nfor j = 0 .. {}\nfor k = 0 .. 2\nfor l = 0 .. 2\n\
                 \x20 read  img[i+k][j+l]\n  read  coef[k][l]\n  write out[i][j]\n",
                n1 + 2,
                n2 + 2,
                n1 - 1,
                n2 - 1
            )
        }
        "dequant" => {
            let (n1, n2) = (31 - d, 31 + d);
            format!(
                "kernel Dequant\narray coeff[{n1}][{n2}] elem 4\narray qtable[{n1}][{n2}] elem 4\narray out[{n1}][{n2}] elem 4\n\
                 for i = 0 .. {}\nfor j = 0 .. {}\n\
                 \x20 read  coeff[i][j]\n  read  qtable[i][j]\n  write out[i][j]\n",
                n1 - 1,
                n2 - 1
            )
        }
        "matadd" => {
            let (n1, n2) = (6 - d, 6 + d);
            format!(
                "kernel MatAdd\narray a[{n1}][{n2}] elem 4\narray b[{n1}][{n2}] elem 4\narray c[{n1}][{n2}] elem 4\n\
                 for i = 0 .. {}\nfor j = 0 .. {}\n\
                 \x20 read  a[i][j]\n  read  b[i][j]\n  write c[i][j]\n",
                n1 - 1,
                n2 - 1
            )
        }
        "pde" => {
            let (n1, n2) = (31 - d, 31 + d);
            format!(
                "kernel PDE\narray a[{r}][{c}] elem 4\narray b[{r}][{c}] elem 4\nfor i = 1 .. {n1}\nfor j = 1 .. {n2}\n\
                 \x20 read  a[i-1][j]\n  read  a[i+1][j]\n  read  a[i][j-1]\n  read  a[i][j+1]\n  write b[i][j]\n",
                r = n1 + 2,
                c = n2 + 2
            )
        }
        "sor" => {
            let (n1, n2) = (31 - d, 31 + d);
            format!(
                "kernel SOR\narray a[{}][{}] elem 4\nfor i = 1 .. {n1}\nfor j = 1 .. {n2}\n\
                 \x20 read  a[i][j]\n  read  a[i-1][j]\n  read  a[i+1][j]\n  read  a[i][j-1]\n  read  a[i][j+1]\n  write a[i][j]\n",
                n1 + 2,
                n2 + 2
            )
        }
        "stencil" => {
            let (n1, n2) = (31 - d, 31 + d);
            format!(
                "kernel Stencil\narray a[{r}][{c}] elem 4\narray out[{r}][{c}] elem 4\nfor i = 1 .. {n1}\nfor j = 1 .. {n2}\n\
                 \x20 read  a[i][j]\n  read  a[i-1][j]\n  read  a[i+1][j]\n  read  a[i][j-1]\n  read  a[i][j+1]\n  write out[i][j]\n",
                r = n1 + 2,
                c = n2 + 2
            )
        }
        other => return Err(format!("no kernel template for `{other}`")),
    };
    Ok(text)
}

/// Reads (seed 0) or writes (other seeds) and parses the named kernels.
pub fn kernels(names: &[&str], seed: u64) -> Result<Vec<(String, Kernel)>, String> {
    names
        .iter()
        .map(|&name| {
            let text = kernel_text(name, seed)?;
            let kernel = parse_kernel(&text).map_err(|e| format!("kernel {name}: {e}"))?;
            Ok((name.to_string(), kernel))
        })
        .collect()
}

/// Events in the `din_stream` trace.
const DIN_EVENTS: usize = 1 << 20;
/// Footprint of the trace: 4 MiB with a 64 KiB hot region touched by 90%
/// of the accesses, so the trace grid sees hits, misses and writebacks.
const DIN_FOOTPRINT: u64 = 4 << 20;
const DIN_HOT_BYTES: u64 = 64 << 10;

/// The seeded hot/cold `.din` text of `din_stream`: every fourth access
/// is a write.
pub fn din_text(seed: u64) -> String {
    let records: Vec<DinRecord> = generate(
        Pattern::HotCold {
            hot_bytes: DIN_HOT_BYTES,
            hot_fraction: 0.9,
        },
        DIN_FOOTPRINT,
        4,
        DIN_EVENTS,
        seed ^ 0x5eed,
    )
    .iter()
    .enumerate()
    .map(|(i, e)| DinRecord {
        label: if i % 4 == 3 {
            DinLabel::Write
        } else {
            DinLabel::Read
        },
        addr: e.addr,
    })
    .collect();
    let mut bytes = Vec::with_capacity(DIN_EVENTS * 9);
    write_din(&mut bytes, &records).expect("writing to memory cannot fail");
    String::from_utf8(bytes).expect("din text is ASCII")
}

/// FNV-1a over bytes — the benchmark's output digest.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
