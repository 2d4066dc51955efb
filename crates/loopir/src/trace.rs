//! Execution-order address trace generation.
//!
//! [`TraceGen`] walks a kernel's loop nest like an odometer (outermost loop
//! slowest) and, at each iteration point, emits one [`MemoryAccess`] per body
//! reference in program order. This is the input format of the `memsim`
//! cache simulator and replaces the closed-form miss-rate expressions the
//! paper used (its §4.1 notes a trace-driven simulator is the interchangeable
//! alternative).
//!
//! The walk is strength-reduced. Subscripts are affine in the induction
//! variables and [`DataLayout::element_address`] is linear in the
//! subscripts, so every reference's byte address is affine too. The
//! generator compiles each reference once into a base address plus one byte
//! increment per loop level, and carries the addresses along the odometer
//! with additions only: no per-event evaluation and no allocation.

use crate::expr::AffineExpr;
use crate::layout::DataLayout;
use crate::nest::{AccessKind, ArrayId, ArrayRef, Bound, Kernel, Loop};
use std::error::Error;
use std::fmt;

/// One memory access of the generated trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemoryAccess {
    /// Byte address of the first byte touched.
    pub addr: u64,
    /// Access size in bytes (the element size of the referenced array).
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// The array this access belongs to (for partitioning studies such as
    /// scratchpad assignment).
    pub array: ArrayId,
}

/// Iterator over the address trace of a kernel under a given layout.
///
/// Loops whose bounds depend on outer induction variables (tiled nests) are
/// supported; a loop level that evaluates to an empty range at some outer
/// iteration simply contributes no iterations there.
///
/// Subscripts are bounds-checked once per kernel when they can be, and
/// per innermost run otherwise, never per event. A subscript that stays
/// inside its extent over the whole box of induction-variable ranges needs
/// no further check. Otherwise each run checks it at both ends: it is
/// affine in the innermost variable, so it stays inside its extent over
/// the run iff it does there. A run that fails the check is walked event
/// by event through [`DataLayout::element_address`], so an out-of-bounds
/// subscript panics at exactly the event, and with exactly the message,
/// of a naive walk — even when the offending reference is a write a
/// caller would filter out.
///
/// # Panics
///
/// [`TraceGen::new`] panics with a message starting `trace address
/// overflow` if some address, subscript or loop bound over the nest's
/// iteration box does not fit an `i64`, and if a loop bound reads a loop
/// that does not enclose it. Iteration panics if a subscript leaves its
/// array's declared extent.
///
/// # Example
///
/// ```
/// use loopir::{kernels, DataLayout, TraceGen, AccessKind};
///
/// let k = kernels::matadd(6);
/// let layout = DataLayout::natural(&k);
/// let reads = TraceGen::new(&k, &layout)
///     .filter(|a| a.kind == AccessKind::Read)
///     .count();
/// assert_eq!(reads, 6 * 6 * 2); // a[i][j] and b[i][j]
/// ```
///
/// A generator is cheap to clone, and a clone taken before the first
/// event is a compiled plan that can be walked again from the start.
/// [`fill`](Self::fill) pulls the walk in bounded chunks.
#[derive(Clone)]
pub struct TraceGen<'a> {
    kernel: &'a Kernel,
    layout: &'a DataLayout,
    plan: Plan,
    /// Current induction-variable values. The innermost one is kept only
    /// while a run takes the per-event path, which is the only reader.
    ivs: Vec<i64>,
    /// Upper bound of each level at the current outer point.
    his: Vec<i64>,
    /// Row values, level-major: block `l` holds every row with levels
    /// `..l` at their current values and levels `l..` at zero.
    vals: Vec<i64>,
    /// Address of each reference at the current point.
    cur: Vec<i64>,
    /// Iterations of the current innermost run after the current point.
    left: u64,
    /// Whether the current run is known to stay in bounds and so emits the
    /// carried addresses.
    in_bounds: bool,
    /// Index of the next body reference to emit at the current point.
    next_ref: usize,
    /// Set once the nest is exhausted.
    done: bool,
}

/// What one emitted access carries besides its address.
#[derive(Clone)]
struct RefMeta {
    size: u32,
    kind: AccessKind,
    array: ArrayId,
}

/// A kernel compiled against one layout.
///
/// Every quantity the walk needs is an affine *row* over the induction
/// variables, in this order: the byte address of each reference, the
/// lower and upper bound expression of each loop level from the innermost
/// out, then each subscript of each reference. Block `m` of the walk's
/// values only needs the bounds of levels `m..`, and the subscripts only
/// when runs are checked, so the rows it carries are a prefix.
#[derive(Clone)]
struct Plan {
    refs: Vec<RefMeta>,
    /// Number of rows.
    rows: usize,
    /// Row values with every induction variable at zero.
    base: Vec<i64>,
    /// `coef[l * rows + q]`: increment of row `q` per unit of level `l`.
    coef: Vec<i64>,
    /// `stride[l * rows + q]`: increment of row `q` per step of level `l`.
    stride: Vec<i64>,
    /// Declared extent of each subscript row, in row order.
    extents: Vec<i64>,
    /// The `min` cap of each level's lower and upper bound (`i64::MAX`
    /// for none), outermost level first.
    caps: Vec<i64>,
    /// `widths[m]`: how many leading rows block `m` carries.
    widths: Vec<usize>,
    /// Loop steps, outermost first.
    steps: Vec<i64>,
    /// False when some reference does not match its array's rank or reads
    /// a loop outside the nest. Every run then takes the per-event path,
    /// which panics exactly as the naive walk does.
    exact: bool,
    /// True when every subscript stays inside its extent over the whole
    /// iteration box, so no run needs its own check.
    verified: bool,
}

/// Panics with the plan's overflow message unless `v` is `Some`.
fn fits<T>(v: Option<T>, what: impl FnOnce() -> String) -> T {
    v.unwrap_or_else(|| panic!("trace address overflow: {} does not fit an i64", what()))
}

/// The extremes of an affine row (constant plus one coefficient per
/// level) over the first `coeffs.len()` levels of `ranges`, or `None` if
/// some partial sum leaves `i64`.
fn row_range(constant: i64, coeffs: &[i64], ranges: &[(i64, i64)]) -> Option<(i64, i64)> {
    coeffs
        .iter()
        .zip(ranges)
        .try_fold((constant, constant), |(lo, hi), (&c, &(a, b))| {
            let (x, y) = (c.checked_mul(a)?, c.checked_mul(b)?);
            Some((lo.checked_add(x.min(y))?, hi.checked_add(x.max(y))?))
        })
}

/// A loop bound as an affine expression and its `min` cap (`i64::MAX`
/// for none).
fn bound_parts(b: &Bound) -> (AffineExpr, i64) {
    match b {
        Bound::Const(k) => (AffineExpr::constant(*k), i64::MAX),
        Bound::Affine(e) => (e.clone(), i64::MAX),
        Bound::Min(e, cap) => (e.clone(), *cap),
    }
}

/// Each induction variable's range over the nest: lower bounds minimised
/// and upper bounds maximised over the outer ranges, caps applied. `Err`
/// names the first loop whose bounds leave `i64`. Every bound must read
/// only the loops enclosing it.
fn iteration_box(loops: &[Loop]) -> Result<Vec<(i64, i64)>, usize> {
    let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(loops.len());
    for (l, lp) in loops.iter().enumerate() {
        let range = |b: &Bound| {
            let (e, cap) = bound_parts(b);
            row_range(e.constant_term(), &e.linear_part(l), &ranges)
                .map(|(lo, hi)| (lo.min(cap), hi.min(cap)))
                .ok_or(l)
        };
        let lo = range(&lp.lower)?.0;
        let hi = range(&lp.upper)?.1;
        ranges.push((lo, hi.max(lo)));
    }
    Ok(ranges)
}

/// Whether `r` matches its array's rank and reads only loops of the
/// nest, so its address is affine over the nest.
fn is_exact(kernel: &Kernel, r: &ArrayRef, depth: usize) -> bool {
    r.subscripts.len() == kernel.array(r.array).dims.len()
        && r.subscripts.iter().all(|s| s.max_depth() < Some(depth))
}

impl Plan {
    /// Compiles `kernel` under `layout`, checking that every row stays
    /// inside `i64` over the nest's iteration box.
    fn new(kernel: &Kernel, layout: &DataLayout) -> Plan {
        let loops = &kernel.nest.loops;
        let depth = loops.len();
        let refs = &kernel.nest.refs;
        let mut exact = true;
        // Affine rows as (constant, one coefficient per level).
        let mut addr_rows: Vec<(i64, Vec<i64>)> = Vec::with_capacity(refs.len());
        let mut sub_rows: Vec<(i64, Vec<i64>)> = Vec::new();
        let mut extents = Vec::new();
        for (ri, r) in refs.iter().enumerate() {
            let a = kernel.array(r.array);
            let p = layout.placement(r.array);
            let what = |part: &str| format!("{part} of reference {ri} to `{}`", a.name);
            exact &= is_exact(kernel, r, depth);
            // Byte weight of each subscript position: the row pitch for
            // the outermost dimension of a multi-dimensional array, the
            // row-major element weight times the element size otherwise.
            let mut scales = vec![0i64; a.dims.len()];
            let mut weight = fits(i64::try_from(a.elem_size).ok(), || what("element size"));
            for k in (1..a.dims.len()).rev() {
                scales[k] = weight;
                let d = i64::try_from(a.dims[k]).ok();
                weight = fits(d.and_then(|d| weight.checked_mul(d)), || what("row size"));
            }
            if let Some(first) = scales.first_mut() {
                *first = match a.dims.len() {
                    1 => weight,
                    _ => fits(i64::try_from(p.row_pitch).ok(), || what("row pitch")),
                };
            }
            let mut constant = fits(i64::try_from(p.base).ok(), || what("base address"));
            let mut coeffs = vec![0i64; depth];
            for (s, &scale) in r.subscripts.iter().zip(&scales) {
                let term = s.constant_term().checked_mul(scale);
                constant = fits(term.and_then(|t| constant.checked_add(t)), || {
                    what("base address")
                });
                for (l, c) in coeffs.iter_mut().enumerate() {
                    let term = s.coeff(l).checked_mul(scale);
                    *c = fits(term.and_then(|t| c.checked_add(t)), || {
                        what("address increment")
                    });
                }
            }
            addr_rows.push((constant, coeffs));
            for (s, &d) in r.subscripts.iter().zip(&a.dims) {
                sub_rows.push((s.constant_term(), s.linear_part(depth)));
                extents.push(i64::try_from(d).unwrap_or(i64::MAX));
            }
        }
        // Loop bounds as rows too; `min` caps apply on top (`i64::MAX`
        // when the bound has none).
        let mut bound_rows: Vec<(i64, Vec<i64>)> = Vec::with_capacity(2 * depth);
        let mut caps = Vec::with_capacity(2 * depth);
        for (l, lp) in loops.iter().enumerate() {
            for b in [&lp.lower, &lp.upper] {
                let (e, cap) = bound_parts(b);
                assert!(
                    e.max_depth().is_none_or(|d| d < l),
                    "a bound of loop {l} reads a loop that does not enclose it"
                );
                let mut coeffs = e.linear_part(l);
                coeffs.resize(depth, 0);
                bound_rows.push((e.constant_term(), coeffs));
                caps.push(cap);
            }
        }

        let ranges = match iteration_box(loops) {
            Ok(ranges) => ranges,
            Err(l) => fits(None, || format!("the bounds of loop {l}")),
        };
        // Every value the walk carries lies inside its row's extremes
        // over that box, so checking them here makes every later sum
        // exact. Subscripts wholly inside their extents need no per-run
        // check at all.
        let mut verified = exact;
        for (q, (constant, coeffs)) in addr_rows.iter().enumerate() {
            fits(row_range(*constant, coeffs, &ranges), || {
                format!("the address of reference {q} over the iteration box")
            });
        }
        for (k, ((constant, coeffs), &extent)) in sub_rows.iter().zip(&extents).enumerate() {
            let (lo, hi) = fits(row_range(*constant, coeffs, &ranges), || {
                format!("subscript row {k} over the iteration box")
            });
            verified &= lo >= 0 && hi < extent;
        }

        let all: Vec<&(i64, Vec<i64>)> = addr_rows
            .iter()
            .chain(bound_rows.chunks(2).rev().flatten())
            .chain(&sub_rows)
            .collect();
        let rows = all.len();
        let widths = (0..=depth)
            .map(|m| match verified {
                true if m > 0 => refs.len() + 2 * (depth - m),
                _ => rows,
            })
            .collect();
        let mut coef = vec![0i64; depth * rows];
        let mut stride = vec![0i64; depth * rows];
        for (l, lp) in loops.iter().enumerate() {
            for (q, (_, coeffs)) in all.iter().enumerate() {
                coef[l * rows + q] = coeffs[l];
                // A stride can only overflow when the step leaves the
                // range, and then the walk never applies it; wrapping
                // keeps every applied sum exact.
                stride[l * rows + q] = coeffs[l].wrapping_mul(lp.step);
            }
        }
        Plan {
            refs: refs
                .iter()
                .map(|r| RefMeta {
                    size: kernel.array(r.array).elem_size as u32,
                    kind: r.kind,
                    array: r.array,
                })
                .collect(),
            rows,
            base: all.iter().map(|(c, _)| *c).collect(),
            coef,
            stride,
            extents,
            caps,
            widths,
            steps: loops.iter().map(|lp| lp.step).collect(),
            exact,
            verified,
        }
    }
}

impl<'a> TraceGen<'a> {
    /// Compiles the kernel under `layout` and positions the walk at the
    /// first iteration point of the nest.
    ///
    /// # Panics
    ///
    /// Panics with `trace address overflow` if an address, subscript or
    /// loop bound over the nest's iteration box does not fit an `i64`, and
    /// if a loop bound reads a loop that does not enclose it.
    pub fn new(kernel: &'a Kernel, layout: &'a DataLayout) -> Self {
        let plan = Plan::new(kernel, layout);
        let depth = kernel.nest.depth();
        let mut vals = vec![0i64; (depth + 1) * plan.rows];
        vals[..plan.rows].copy_from_slice(&plan.base);
        let nrefs = plan.refs.len();
        let mut gen = TraceGen {
            kernel,
            layout,
            ivs: vec![0; depth],
            his: vec![0; depth],
            cur: plan.base[..nrefs].to_vec(),
            vals,
            left: 0,
            in_bounds: false,
            next_ref: 0,
            done: nrefs == 0,
            plan,
        };
        gen.done = gen.done || !gen.settle(0, true);
        if gen.done {
            gen.next_ref = nrefs;
        }
        gen
    }

    /// Collects the whole trace, keeping only reads if `reads_only`.
    ///
    /// The paper's models count only reads ("reads dominate processor cache
    /// accesses"), so most callers pass `true`.
    pub fn collect_trace(
        kernel: &'a Kernel,
        layout: &'a DataLayout,
        reads_only: bool,
    ) -> Vec<MemoryAccess> {
        TraceGen::new(kernel, layout)
            .filter(|a| !reads_only || a.kind == AccessKind::Read)
            .collect()
    }

    /// Appends to `buf` every access that `keep` maps to `Some`, until
    /// `buf` holds `capacity` items or the nest is exhausted, and returns
    /// how many it appended: 0 means the trace is over (or `buf` was
    /// already full).
    ///
    /// The walk stops after any access, mid-run too, and the next call
    /// resumes exactly there, so chunks of any capacity concatenate to the
    /// trace [`fold`](Iterator::fold) yields. Whole in-bounds runs are
    /// emitted from the carried addresses as `fold` does; `keep` sees
    /// every access in order, including the ones it drops.
    ///
    /// # Panics
    ///
    /// As iteration does, at the same access.
    ///
    /// # Example
    ///
    /// ```
    /// use loopir::{kernels, AccessKind, DataLayout, TraceGen};
    ///
    /// let k = kernels::matadd(6);
    /// let layout = DataLayout::natural(&k);
    /// let mut gen = TraceGen::new(&k, &layout);
    /// let mut chunk = Vec::new();
    /// let mut reads = 0;
    /// loop {
    ///     chunk.clear();
    ///     let n = gen.fill(&mut chunk, 5, |a| (a.kind == AccessKind::Read).then_some(a.addr));
    ///     if n == 0 {
    ///         break;
    ///     }
    ///     reads += n;
    /// }
    /// assert_eq!(reads, 6 * 6 * 2);
    /// ```
    pub fn fill<T>(
        &mut self,
        buf: &mut Vec<T>,
        capacity: usize,
        mut keep: impl FnMut(MemoryAccess) -> Option<T>,
    ) -> usize {
        let start = buf.len();
        let nrefs = self.plan.refs.len();
        while buf.len() < capacity {
            if self.next_ref == nrefs && !self.next_point() {
                break;
            }
            if !self.in_bounds || self.next_ref > 0 {
                // The rest of the current point, access by access.
                while self.next_ref < nrefs {
                    if let Some(item) = keep(self.emit()) {
                        buf.push(item);
                        if buf.len() == capacity {
                            return buf.len() - start;
                        }
                    }
                }
                continue;
            }
            // The rest of the run: the current point, then `left` more.
            let TraceGen {
                plan,
                ivs,
                cur,
                left,
                next_ref,
                ..
            } = self;
            let l = ivs.len().saturating_sub(1);
            let stride = &plan.stride[l * plan.rows..];
            for point in 0..=*left {
                if point > 0 {
                    for (v, &s) in cur.iter_mut().zip(stride) {
                        *v = v.wrapping_add(s);
                    }
                }
                for (r, (&v, m)) in cur.iter().zip(&plan.refs).enumerate() {
                    let access = MemoryAccess {
                        addr: v as u64,
                        size: m.size,
                        kind: m.kind,
                        array: m.array,
                    };
                    if let Some(item) = keep(access) {
                        buf.push(item);
                        if buf.len() == capacity {
                            // Stopped inside the run: the current point
                            // is `point`, with `r + 1` references done.
                            *left -= point;
                            *next_ref = r + 1;
                            return buf.len() - start;
                        }
                    }
                }
            }
            // As in `fold`, the next run re-enters the innermost level.
            *left = 0;
            *next_ref = nrefs;
        }
        buf.len() - start
    }

    /// Moves the odometer to the first point of the next non-empty
    /// innermost run, starting at `level`: with `entering`, levels
    /// `level..` are initialised to their lower bounds; otherwise `level`
    /// is advanced by its step first. An empty level advances its
    /// enclosing one. Returns `false` when the nest is exhausted.
    fn settle(&mut self, mut level: usize, mut entering: bool) -> bool {
        let depth = self.ivs.len();
        let Plan {
            rows,
            ref coef,
            ref stride,
            ref caps,
            ref widths,
            ref steps,
            ..
        } = self.plan;
        let nrefs = self.cur.len();
        loop {
            if entering {
                if level == depth {
                    self.start_run();
                    return true;
                }
                let b = nrefs + 2 * (depth - 1 - level);
                let at = &self.vals[level * rows + b..level * rows + b + 2];
                let lo = at[0].min(caps[2 * level]);
                let hi = at[1].min(caps[2 * level + 1]);
                if lo <= hi {
                    self.ivs[level] = lo;
                    self.his[level] = hi;
                    let (outer, inner) = self.vals.split_at_mut((level + 1) * rows);
                    let outer = &outer[level * rows..];
                    let coef = &coef[level * rows..(level + 1) * rows];
                    // The innermost level only moves the addresses.
                    let out = if level + 1 == depth {
                        &mut self.cur[..]
                    } else {
                        &mut inner[..widths[level + 1]]
                    };
                    for ((v, &o), &c) in out.iter_mut().zip(outer).zip(coef) {
                        *v = o.wrapping_add(c.wrapping_mul(lo));
                    }
                    level += 1;
                    continue;
                }
                if level == 0 {
                    return false;
                }
                level -= 1;
                entering = false;
            } else {
                let next = self.ivs[level] + steps[level];
                if next <= self.his[level] {
                    self.ivs[level] = next;
                    let start = (level + 1) * rows;
                    let inner = &mut self.vals[start..start + widths[level + 1]];
                    for (v, &s) in inner.iter_mut().zip(&stride[level * rows..]) {
                        *v = v.wrapping_add(s);
                    }
                    level += 1;
                    entering = true;
                    continue;
                }
                if level == 0 {
                    return false;
                }
                level -= 1;
            }
        }
    }

    /// Sizes the innermost run just entered and, unless the plan verified
    /// the whole iteration box, checks every subscript of every reference
    /// at both ends of the run.
    fn start_run(&mut self) {
        self.next_ref = 0;
        let Some(l) = self.ivs.len().checked_sub(1) else {
            // A nest without loops is one point.
            self.left = 0;
            let subs = &self.vals[self.plan.rows - self.plan.extents.len()..];
            self.in_bounds = self.plan.verified
                || (self.plan.exact
                    && subs
                        .iter()
                        .zip(&self.plan.extents)
                        .all(|(v, &d)| (0..d).contains(v)));
            return;
        };
        let (lo, hi, step) = (self.ivs[l], self.his[l], self.plan.steps[l]);
        self.left = match step {
            1 => hi.abs_diff(lo),
            _ => hi.abs_diff(lo) / step as u64,
        };
        if self.plan.verified {
            self.in_bounds = true;
            return;
        }
        // `last` lies in `lo..=hi`, so the wrapping products are exact.
        let last = lo.wrapping_add((self.left as i64).wrapping_mul(step));
        let rows = self.plan.rows;
        let subs = rows - self.plan.extents.len()..rows;
        let at = &self.vals[l * rows + subs.start..l * rows + subs.end];
        let coef = &self.plan.coef[l * rows + subs.start..l * rows + subs.end];
        self.in_bounds = self.plan.exact
            && at
                .iter()
                .zip(coef)
                .zip(&self.plan.extents)
                .all(|((&v, &c), &d)| {
                    let range = 0..d;
                    range.contains(&v.wrapping_add(c.wrapping_mul(lo)))
                        && range.contains(&v.wrapping_add(c.wrapping_mul(last)))
                });
    }

    /// Moves to the next iteration point; `false` once the nest is done.
    fn next_point(&mut self) -> bool {
        if self.done {
            return false;
        }
        if self.left > 0 {
            self.left -= 1;
            let l = self.ivs.len() - 1;
            self.ivs[l] += self.plan.steps[l];
            let stride = &self.plan.stride[l * self.plan.rows..];
            for (v, &s) in self.cur.iter_mut().zip(stride) {
                *v = v.wrapping_add(s);
            }
            self.next_ref = 0;
            return true;
        }
        // The run is over: advance the level enclosing it.
        let depth = self.ivs.len();
        if depth < 2 || !self.settle(depth - 2, false) {
            self.done = true;
            return false;
        }
        true
    }

    /// Emits reference `next_ref` at the current point.
    #[inline]
    fn emit(&mut self) -> MemoryAccess {
        let r = self.next_ref;
        self.next_ref += 1;
        let addr = if self.in_bounds {
            self.cur[r] as u64
        } else {
            self.element_address(r)
        };
        let m = &self.plan.refs[r];
        MemoryAccess {
            addr,
            size: m.size,
            kind: m.kind,
            array: m.array,
        }
    }

    /// The per-event path of a run that failed its bounds check: evaluates
    /// the subscripts and lets [`DataLayout::element_address`] check them.
    fn element_address(&self, r: usize) -> u64 {
        let r = &self.kernel.nest.refs[r];
        let subs: Vec<i64> = r.subscripts.iter().map(|s| s.eval(&self.ivs)).collect();
        self.layout.element_address(self.kernel, r.array, &subs)
    }
}

impl Iterator for TraceGen<'_> {
    type Item = MemoryAccess;

    #[inline]
    fn next(&mut self) -> Option<MemoryAccess> {
        if self.next_ref == self.plan.refs.len() && !self.next_point() {
            return None;
        }
        Some(self.emit())
    }

    /// Whole in-bounds runs are emitted straight from the carried
    /// addresses; everything else goes through [`next`](Self::next)'s
    /// path.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, MemoryAccess) -> B,
    {
        let mut acc = init;
        let nrefs = self.plan.refs.len();
        loop {
            if self.in_bounds && self.next_ref == 0 {
                // The rest of the run: the current point, then `left` more.
                let l = self.ivs.len().saturating_sub(1);
                let stride = &self.plan.stride[l * self.plan.rows..];
                let refs = &self.plan.refs;
                for point in 0..=self.left {
                    if point > 0 {
                        for (v, &s) in self.cur.iter_mut().zip(stride) {
                            *v = v.wrapping_add(s);
                        }
                    }
                    for (&v, m) in self.cur.iter().zip(refs) {
                        acc = f(
                            acc,
                            MemoryAccess {
                                addr: v as u64,
                                size: m.size,
                                kind: m.kind,
                                array: m.array,
                            },
                        );
                    }
                }
                // The innermost variable is not advanced here: the next
                // run re-enters its level from the lower bound.
                self.left = 0;
                self.next_ref = nrefs;
            }
            while self.next_ref < nrefs {
                acc = f(acc, self.emit());
            }
            if !self.next_point() {
                return acc;
            }
        }
    }
}

/// The first access of a kernel's trace whose subscript leaves its
/// array: the access at which a naive walk through
/// [`DataLayout::element_address`] (and so [`TraceGen`]) panics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutOfBounds {
    /// Index of the body reference, in program order.
    pub reference: usize,
    /// Name of the array.
    pub array: String,
    /// Which subscript (0 = outermost).
    pub dim: usize,
    /// The subscript's value.
    pub index: i64,
    /// The dimension's extent.
    pub extent: usize,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subscript {} of `{}` out of bounds: {} not in 0..{}",
            self.dim, self.array, self.index, self.extent
        )
    }
}

impl Error for OutOfBounds {}

/// Checks every subscript of every reference of `kernel` against its
/// array's extent over every iteration point, without generating the
/// trace.
///
/// It takes one step per innermost run, never one per event: a
/// subscript is affine in the innermost variable, so over a run it
/// leaves its extent at most once, at a point that follows in closed
/// form from the run's first value and step. When every subscript stays
/// inside its extent over the whole box of induction-variable ranges (as
/// [`TraceGen`]'s plan checks), no run is visited at all.
///
/// A kernel [`TraceGen`] rejects on its own terms passes: a reference
/// whose arity differs from its array's rank, a subscript or bound that
/// reads a loop outside its scope, or a box that does not fit an `i64`.
///
/// # Errors
///
/// [`OutOfBounds`] for the first access, in trace order, that leaves its
/// array (references in program order, subscripts outermost first).
pub fn check_subscripts(kernel: &Kernel) -> Result<(), OutOfBounds> {
    let loops = &kernel.nest.loops;
    let depth = loops.len();
    let refs = &kernel.nest.refs;
    let well_formed = refs.iter().all(|r| is_exact(kernel, r, depth))
        && loops.iter().enumerate().all(|(l, lp)| {
            [&lp.lower, &lp.upper]
                .iter()
                .all(|b| bound_parts(b).0.max_depth() < Some(l))
        });
    if !well_formed {
        return Ok(());
    }
    let Ok(ranges) = iteration_box(loops) else {
        return Ok(());
    };
    // (reference, dimension, subscript, extent), in walk order.
    let subs: Vec<(usize, usize, &AffineExpr, i64)> = refs
        .iter()
        .enumerate()
        .flat_map(|(r, aref)| {
            let dims = &kernel.array(aref.array).dims;
            aref.subscripts
                .iter()
                .zip(dims)
                .enumerate()
                .map(move |(k, (e, &d))| (r, k, e, i64::try_from(d).unwrap_or(i64::MAX)))
        })
        .collect();
    let mut verified = true;
    for &(_, _, e, d) in &subs {
        match row_range(e.constant_term(), &e.linear_part(depth), &ranges) {
            Some((lo, hi)) => verified &= lo >= 0 && hi < d,
            None => return Ok(()),
        }
    }
    if verified {
        return Ok(());
    }

    // The first bad access of the run starting at `ivs` and taking
    // `left` more steps of `step` on the innermost variable: the least
    // (point, reference, subscript) outside its extent. Each subscript
    // is affine in the run's point `p`, so it leaves `0..d` at most once.
    let first_bad = |ivs: &[i64], step: i64, left: u64| -> Option<OutOfBounds> {
        let mut best: Option<(u64, usize, usize, i64)> = None;
        for &(r, k, e, d) in &subs {
            let v0 = i128::from(e.eval(ivs));
            let b = i128::from(e.coeff(depth.saturating_sub(1))) * i128::from(step);
            let d = i128::from(d);
            let p = if !(0..d).contains(&v0) {
                0
            } else if b > 0 {
                (d - 1 - v0) / b + 1
            } else if b < 0 {
                v0 / -b + 1
            } else {
                continue;
            };
            let Some(p) = u64::try_from(p).ok().filter(|&p| p <= left) else {
                continue;
            };
            if best.is_none_or(|(q, ..)| p < q) {
                best = Some((p, r, k, (v0 + b * i128::from(p)) as i64));
            }
        }
        best.map(|(_, r, k, index)| {
            let a = kernel.array(refs[r].array);
            OutOfBounds {
                reference: r,
                array: a.name.clone(),
                dim: k,
                index,
                extent: a.dims[k],
            }
        })
    };
    let Some(inner) = depth.checked_sub(1) else {
        // A nest without loops is one point.
        return first_bad(&[], 0, 0).map_or(Ok(()), Err);
    };

    // An odometer over the outer levels, one innermost run per point.
    let mut ivs = vec![0i64; depth];
    let mut his = vec![0i64; depth];
    let (mut level, mut entering) = (0, true);
    loop {
        if entering {
            let lp = &loops[level];
            let (lo, hi) = (lp.lower.eval(&ivs[..level]), lp.upper.eval(&ivs[..level]));
            if lo <= hi && level < inner {
                ivs[level] = lo;
                his[level] = hi;
                level += 1;
                continue;
            }
            if lo <= hi {
                ivs[inner] = lo;
                let left = hi.abs_diff(lo) / lp.step as u64;
                if let Some(e) = first_bad(&ivs, lp.step, left) {
                    return Err(e);
                }
            }
            entering = false;
        } else {
            let next = ivs[level].checked_add(loops[level].step);
            if let Some(next) = next.filter(|&n| n <= his[level]) {
                ivs[level] = next;
                level += 1;
                entering = true;
                continue;
            }
        }
        if level == 0 {
            return Ok(());
        }
        level -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::layout::Placement;
    use crate::nest::{ArrayDecl, ArrayId, ArrayRef, Bound, Kernel, Loop, LoopNest};

    fn simple_1d(n: i64) -> Kernel {
        let a = ArrayDecl::new("a", &[n as usize], 4);
        let nest = LoopNest {
            loops: vec![Loop::new(0, n - 1)],
            refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0)])],
        };
        Kernel::new("seq", vec![a], nest)
    }

    #[test]
    fn sequential_scan_emits_stride_4_addresses() {
        let k = simple_1d(5);
        let l = DataLayout::natural(&k);
        let addrs: Vec<u64> = TraceGen::new(&k, &l).map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn refs_emitted_in_program_order_per_point() {
        let a = ArrayDecl::new("a", &[4], 4);
        let b = ArrayDecl::new("b", &[4], 4);
        let nest = LoopNest {
            loops: vec![Loop::new(0, 1)],
            refs: vec![
                ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0)]),
                ArrayRef::read(ArrayId(1), vec![AffineExpr::var(0)]),
                ArrayRef::write(ArrayId(0), vec![AffineExpr::var(0)]),
            ],
        };
        let k = Kernel::new("ab", vec![a, b], nest);
        let l = DataLayout::natural(&k);
        let trace: Vec<_> = TraceGen::new(&k, &l).collect();
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].addr, 0); // a[0]
        assert_eq!(trace[1].addr, 16); // b[0]
        assert_eq!(trace[2].kind, AccessKind::Write);
        assert_eq!(trace[3].addr, 4); // a[1]
    }

    #[test]
    fn two_d_row_major_order() {
        let a = ArrayDecl::new("a", &[3, 3], 1);
        let nest = LoopNest {
            loops: vec![Loop::new(0, 2), Loop::new(0, 2)],
            refs: vec![ArrayRef::read(
                ArrayId(0),
                vec![AffineExpr::var(0), AffineExpr::var(1)],
            )],
        };
        let k = Kernel::new("grid", vec![a], nest);
        let l = DataLayout::natural(&k);
        let addrs: Vec<u64> = TraceGen::new(&k, &l).map(|a| a.addr).collect();
        assert_eq!(addrs, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn affine_bounds_make_triangular_nests() {
        // for i in 0..=3 { for j in i..=3 { touch a[j] } } -> 4+3+2+1 = 10
        let a = ArrayDecl::new("a", &[4], 1);
        let nest = LoopNest {
            loops: vec![
                Loop::new(0, 3),
                Loop {
                    lower: Bound::Affine(AffineExpr::var(0)),
                    upper: Bound::Const(3),
                    step: 1,
                },
            ],
            refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)])],
        };
        let k = Kernel::new("tri", vec![a], nest);
        let l = DataLayout::natural(&k);
        assert_eq!(TraceGen::new(&k, &l).count(), 10);
    }

    #[test]
    fn min_bounds_cap_partial_tiles() {
        // for t in 0..=4 step 2 { for i in t..=min(t+1, 4) } -> 2+2+1 = 5
        let a = ArrayDecl::new("a", &[5], 1);
        let nest = LoopNest {
            loops: vec![
                Loop::with_step(0, 4, 2),
                Loop {
                    lower: Bound::Affine(AffineExpr::var(0)),
                    upper: Bound::Min(AffineExpr::var(0) + 1, 4),
                    step: 1,
                },
            ],
            refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)])],
        };
        let k = Kernel::new("strip", vec![a], nest);
        let l = DataLayout::natural(&k);
        let addrs: Vec<u64> = TraceGen::new(&k, &l).map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reads_only_filter() {
        let a = ArrayDecl::new("a", &[4], 4);
        let nest = LoopNest {
            loops: vec![Loop::new(0, 3)],
            refs: vec![
                ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0)]),
                ArrayRef::write(ArrayId(0), vec![AffineExpr::var(0)]),
            ],
        };
        let k = Kernel::new("rw", vec![a], nest);
        let l = DataLayout::natural(&k);
        assert_eq!(TraceGen::collect_trace(&k, &l, true).len(), 4);
        assert_eq!(TraceGen::collect_trace(&k, &l, false).len(), 8);
    }

    #[test]
    fn empty_inner_ranges_are_skipped() {
        // for i in 0..=2 { for j in i..=1 } -> i=0: j=0,1; i=1: j=1; i=2: none
        let a = ArrayDecl::new("a", &[3], 1);
        let nest = LoopNest {
            loops: vec![
                Loop::new(0, 2),
                Loop {
                    lower: Bound::Affine(AffineExpr::var(0)),
                    upper: Bound::Const(1),
                    step: 1,
                },
            ],
            refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)])],
        };
        let k = Kernel::new("shrink", vec![a], nest);
        let l = DataLayout::natural(&k);
        let addrs: Vec<u64> = TraceGen::new(&k, &l).map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 1, 1]);
    }

    /// `a[i][0]` over three rows of a `[3][1]` array placed at `base` with
    /// row pitch `pitch`.
    fn pitched_rows(base: u64, pitch: u64) -> (Kernel, DataLayout) {
        let a = ArrayDecl::new("a", &[3, 1], 4);
        let nest = LoopNest {
            loops: vec![Loop::new(0, 2)],
            refs: vec![ArrayRef::read(
                ArrayId(0),
                vec![AffineExpr::var(0), AffineExpr::constant(0)],
            )],
        };
        let k = Kernel::new("pitched", vec![a], nest);
        let l = DataLayout::from_placements(
            &k,
            vec![Placement {
                base,
                row_pitch: pitch,
            }],
        );
        (k, l)
    }

    #[test]
    fn huge_but_representable_pitches_still_trace() {
        let (k, l) = pitched_rows(0, 1 << 61);
        let addrs: Vec<u64> = TraceGen::new(&k, &l).map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 1 << 61, 1 << 62]);
    }

    #[test]
    #[should_panic(expected = "trace address overflow: row pitch of reference 0 to `a`")]
    fn row_pitch_past_i64_panics_instead_of_wrapping() {
        // Row 2 would start at 2^64: a u64 walk wraps it onto a[0][0] in
        // release builds.
        let (k, l) = pitched_rows(0, 1 << 63);
        let _ = TraceGen::new(&k, &l);
    }

    #[test]
    #[should_panic(expected = "trace address overflow: the address of reference 0")]
    fn addresses_past_i64_panic_before_the_first_event() {
        let (k, l) = pitched_rows(i64::MAX as u64 - 4, 4);
        let _ = TraceGen::new(&k, &l);
    }

    #[test]
    fn loopless_kernel_is_one_point() {
        let a = ArrayDecl::new("a", &[4], 4);
        let nest = LoopNest {
            loops: vec![],
            refs: vec![
                ArrayRef::read(ArrayId(0), vec![AffineExpr::constant(2)]),
                ArrayRef::write(ArrayId(0), vec![AffineExpr::constant(3)]),
            ],
        };
        let k = Kernel::new("point", vec![a], nest);
        let l = DataLayout::natural(&k);
        let by_next: Vec<(u64, AccessKind)> =
            TraceGen::new(&k, &l).map(|a| (a.addr, a.kind)).collect();
        let mut by_fold = Vec::new();
        TraceGen::new(&k, &l).for_each(|a| by_fold.push((a.addr, a.kind)));
        assert_eq!(
            by_next,
            vec![(8, AccessKind::Read), (12, AccessKind::Write)]
        );
        assert_eq!(by_fold, by_next);
    }

    #[test]
    fn subscript_check_covers_a_loopless_point() {
        // Loopless nests have no runs; the random-kernel property test
        // always generates at least one loop.
        let point = |index: i64| {
            let nest = LoopNest {
                loops: vec![],
                refs: vec![
                    ArrayRef::read(ArrayId(0), vec![AffineExpr::constant(2)]),
                    ArrayRef::write(ArrayId(0), vec![AffineExpr::constant(index)]),
                ],
            };
            Kernel::new("point", vec![ArrayDecl::new("a", &[4], 4)], nest)
        };
        assert_eq!(check_subscripts(&point(3)), Ok(()));
        let e = check_subscripts(&point(4)).expect_err("a[4] of a 4-element array");
        assert_eq!(e.reference, 1);
        assert_eq!(
            e.to_string(),
            "subscript 0 of `a` out of bounds: 4 not in 0..4"
        );
    }

    /// The whole trace pulled through [`TraceGen::fill`] in chunks of
    /// `capacity`, keeping only the accesses `keep` accepts.
    fn chunked(
        k: &Kernel,
        l: &DataLayout,
        capacity: usize,
        keep: impl Fn(&MemoryAccess) -> bool,
    ) -> Vec<MemoryAccess> {
        let mut gen = TraceGen::new(k, l);
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            let n = gen.fill(&mut chunk, capacity, |a| keep(&a).then_some(a));
            assert_eq!(n, chunk.len());
            assert!(n <= capacity);
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&chunk);
        }
    }

    #[test]
    fn fill_resumes_mid_run_at_every_capacity() {
        let rw = {
            let a = ArrayDecl::new("a", &[9], 4);
            let b = ArrayDecl::new("b", &[9], 4);
            let nest = LoopNest {
                loops: vec![Loop::new(0, 2), Loop::new(0, 8)],
                refs: vec![
                    ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)]),
                    ArrayRef::write(ArrayId(1), vec![AffineExpr::var(1)]),
                    ArrayRef::read(ArrayId(1), vec![AffineExpr::var(1)]),
                ],
            };
            Kernel::new("rw", vec![a, b], nest)
        };
        let strip = {
            // Negative lower bound and `min`-capped inner runs.
            let a = ArrayDecl::new("a", &[12], 4);
            let nest = LoopNest {
                loops: vec![
                    Loop::with_step(-3, 8, 3),
                    Loop {
                        lower: Bound::Affine(AffineExpr::var(0) + 3),
                        upper: Bound::Min(AffineExpr::var(0) + 5, 9),
                        step: 1,
                    },
                ],
                refs: vec![
                    ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)]),
                    ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1) + 2]),
                ],
            };
            Kernel::new("strip", vec![a], nest)
        };
        for k in [rw, strip, simple_1d(11)] {
            let l = DataLayout::natural(&k);
            let all: Vec<MemoryAccess> = TraceGen::new(&k, &l).collect();
            let reads: Vec<MemoryAccess> = TraceGen::collect_trace(&k, &l, true);
            for capacity in [1, 2, 3, 7, 4096] {
                assert_eq!(chunked(&k, &l, capacity, |_| true), all, "{}", k.name);
                let is_read = |a: &MemoryAccess| a.kind == AccessKind::Read;
                assert_eq!(chunked(&k, &l, capacity, is_read), reads, "{}", k.name);
            }
        }
    }

    #[test]
    fn fill_matches_iteration_on_checked_and_loopless_nests() {
        // `a[j - i]` stays in bounds on every point of the triangle but
        // not over its box, so each run is checked; `point` has no loops.
        let tri = {
            let a = ArrayDecl::new("a", &[4], 1);
            let nest = LoopNest {
                loops: vec![
                    Loop::new(0, 3),
                    Loop {
                        lower: Bound::Affine(AffineExpr::var(0)),
                        upper: Bound::Const(3),
                        step: 1,
                    },
                ],
                refs: vec![
                    ArrayRef::read(ArrayId(0), vec![AffineExpr::var(1)]),
                    ArrayRef::read(
                        ArrayId(0),
                        vec![AffineExpr::var(1) + AffineExpr::linear(0, -1, 0)],
                    ),
                ],
            };
            Kernel::new("tri", vec![a], nest)
        };
        let point = {
            let a = ArrayDecl::new("a", &[4], 4);
            let nest = LoopNest {
                loops: vec![],
                refs: vec![
                    ArrayRef::read(ArrayId(0), vec![AffineExpr::constant(2)]),
                    ArrayRef::write(ArrayId(0), vec![AffineExpr::constant(3)]),
                ],
            };
            Kernel::new("point", vec![a], nest)
        };
        for k in [tri, point] {
            let l = DataLayout::natural(&k);
            let all: Vec<MemoryAccess> = TraceGen::new(&k, &l).collect();
            for capacity in [1, 2, 5] {
                assert_eq!(chunked(&k, &l, capacity, |_| true), all, "{}", k.name);
            }
        }
    }

    #[test]
    fn fill_stops_at_capacity_and_at_the_end() {
        let k = simple_1d(5);
        let l = DataLayout::natural(&k);
        let mut gen = TraceGen::new(&k, &l);
        let mut buf = vec![0u64; 2];
        // A full buffer takes nothing; appending respects what is there.
        assert_eq!(gen.fill(&mut buf, 2, |a| Some(a.addr)), 0);
        assert_eq!(gen.fill(&mut buf, 4, |a| Some(a.addr)), 2);
        assert_eq!(buf, vec![0, 0, 0, 4]);
        buf.clear();
        assert_eq!(gen.fill(&mut buf, 8, |a| Some(a.addr)), 3);
        assert_eq!(buf, vec![8, 12, 16]);
        assert_eq!(gen.fill(&mut buf, 8, |a| Some(a.addr)), 0);
    }

    #[test]
    #[should_panic(expected = "subscript arity mismatch")]
    fn unvalidated_arity_mismatch_panics_like_the_naive_walk() {
        // Built without `Kernel::new`, which would reject it: the
        // reference gives one subscript to a 2-D array.
        let k = Kernel {
            name: "bad".to_string(),
            arrays: vec![ArrayDecl::new("a", &[2, 2], 4)],
            nest: LoopNest {
                loops: vec![Loop::new(0, 1)],
                refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0)])],
            },
        };
        let l = DataLayout::natural(&k);
        let _ = TraceGen::new(&k, &l).count();
    }
}
