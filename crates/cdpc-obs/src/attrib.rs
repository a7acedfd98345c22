//! The miss-attribution engine: every classified external-cache miss
//! charged to `(array × color × cpu × miss class)`.
//!
//! The paper's whole argument is that conflict misses can be traced to
//! specific arrays landing in the same cache bins; an
//! [`AttributionProbe`] closes that loop. It listens to
//! [`Probe::on_classified_miss`] events (emitted by the memory system when
//! a region map is installed) and accumulates them into a dense pre-sized
//! tensor, so attribution adds no per-event heap traffic — the invariant
//! the zero-allocation run test enforces.
//!
//! ## Phase weighting
//!
//! The run loop simulates each phase once and scales its counters by the
//! phase's occurrence count `k`. The probe mirrors that protocol through
//! [`Probe::on_phase_start`] / [`Probe::on_phase_end`]: events land in a
//! phase-local tensor, and at phase end the local counts are folded into
//! the totals multiplied by `k`. Events outside any phase window (the
//! discarded warm-up pass, prefaulting) are dropped by the next phase
//! start, so the attributed totals decompose the end-of-run aggregates
//! *exactly* — per-array conflict counts sum to the report's conflict
//! total, not approximately but bit-for-bit.
//!
//! ## Memory bound
//!
//! Two tensors of `(arrays + 1) × colors × cpus × 5` `u64` cells (the
//! `+ 1` is the "(other)" row for code and runtime pages), three pairs of
//! fixed 496-bucket histograms, and `colors`-sized occupancy/pressure
//! vectors. For the paper machine (7 arrays, 256 colors, 8 CPUs) that is
//! 8 × 256 × 8 × 5 × 8 B × 2 ≈ 10 MiB worst case and ~1.3 MiB at the
//! default 32-color experiment scale — all allocated up front.

use crate::hist::LogHistogram;
use crate::json::JsonValue;
use crate::probe::{HintOutcome, MissClassId, Probe, ATTR_OTHER_ARRAY};

/// Number of miss classes (the tensor's innermost dimension).
const CLASSES: usize = MissClassId::ALL.len();

/// Aggregates classified misses into a dense
/// `(array × color × cpu × class)` tensor plus latency/distance/batch
/// histograms and per-color occupancy series. Install with
/// `run_attributed` (or any `run_observed` call whose memory system has a
/// region map).
pub struct AttributionProbe {
    /// Real (compiler-declared) arrays; tensor rows = `arrays + 1`.
    arrays: usize,
    /// Page colors of the simulated cache.
    colors: usize,
    /// Simulated CPUs.
    cpus: usize,
    /// Phase-local tensor, folded into `tot` at each phase end.
    cur: Box<[u64]>,
    /// Phase-weighted totals (the report's source of truth).
    tot: Box<[u64]>,
    /// Phase-local / total miss service latency histograms.
    cur_latency: LogHistogram,
    latency: LogHistogram,
    /// Phase-local / total inter-miss distance histograms (cycles between
    /// consecutive classified misses of one CPU, within a phase).
    cur_gap: LogHistogram,
    gap: LogHistogram,
    /// Phase-local / total run-loop batch size histograms.
    cur_batch: LogHistogram,
    batch: LogHistogram,
    /// Last classified-miss cycle per CPU (`u64::MAX` = none this phase).
    last_miss: Box<[u64]>,
    /// Live mapped-page count per color (state, not flow: tracked across
    /// the whole run including warm-up, since mappings persist).
    occ: Box<[u64]>,
    /// Pressure: faults per color whose hint fell back under pressure.
    fallbacks: Box<[u64]>,
    /// Occupancy snapshot cycles (baseline + one per measured phase).
    snap_cycles: Vec<u64>,
    /// Flattened snapshots: snapshot `i` is `[i*colors, (i+1)*colors)`.
    snap_occ: Vec<u64>,
    /// Occurrence count of the phase currently executing.
    weight: u64,
    /// True once the first measured phase has started.
    measured: bool,
    /// Raw callbacks received (self-profiling).
    events: u64,
}

impl AttributionProbe {
    /// A probe sized for `arrays` compiler-declared arrays, `colors` page
    /// colors, `cpus` CPUs, and `phases` measured phases. All storage —
    /// including the occupancy-snapshot buffers — is allocated here so the
    /// run itself never touches the heap on the probe's behalf.
    pub fn new(arrays: usize, colors: usize, cpus: usize, phases: usize) -> Self {
        assert!(colors > 0 && cpus > 0, "degenerate attribution dims");
        let slots = (arrays + 1) * colors * cpus * CLASSES;
        Self {
            arrays,
            colors,
            cpus,
            cur: vec![0; slots].into_boxed_slice(),
            tot: vec![0; slots].into_boxed_slice(),
            cur_latency: LogHistogram::new(),
            latency: LogHistogram::new(),
            cur_gap: LogHistogram::new(),
            gap: LogHistogram::new(),
            cur_batch: LogHistogram::new(),
            batch: LogHistogram::new(),
            last_miss: vec![u64::MAX; cpus].into_boxed_slice(),
            occ: vec![0; colors].into_boxed_slice(),
            fallbacks: vec![0; colors].into_boxed_slice(),
            snap_cycles: Vec::with_capacity(phases + 1),
            snap_occ: Vec::with_capacity((phases + 1) * colors),
            weight: 1,
            measured: false,
            events: 0,
        }
    }

    /// Tensor dimensions as `(arrays, colors, cpus)` (`arrays` excludes
    /// the implicit "(other)" row).
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.arrays, self.colors, self.cpus)
    }

    /// Row index for an `array_id` as delivered by the probe event: real
    /// arrays map to themselves, everything else to the "(other)" row.
    #[inline]
    fn row_of(&self, array_id: u32) -> usize {
        let id = array_id as usize;
        if array_id == ATTR_OTHER_ARRAY || id >= self.arrays {
            self.arrays
        } else {
            id
        }
    }

    #[inline]
    fn idx(&self, row: usize, color: usize, cpu: usize, class: usize) -> usize {
        ((row * self.colors + color) * self.cpus + cpu) * CLASSES + class
    }

    /// One weighted tensor cell. `row` ranges over `0..=arrays` (the last
    /// row is "(other)").
    pub fn cell(&self, row: usize, color: usize, cpu: usize, class: MissClassId) -> u64 {
        self.tot[self.idx(row, color, cpu, class.index())]
    }

    /// Weighted misses of one row, all colors/CPUs/classes.
    pub fn array_total(&self, row: usize) -> u64 {
        let base = self.idx(row, 0, 0, 0);
        self.tot[base..base + self.colors * self.cpus * CLASSES]
            .iter()
            .sum()
    }

    /// Weighted misses of one row and class.
    pub fn array_class(&self, row: usize, class: MissClassId) -> u64 {
        let c = class.index();
        let mut sum = 0;
        for color in 0..self.colors {
            for cpu in 0..self.cpus {
                sum += self.tot[self.idx(row, color, cpu, c)];
            }
        }
        sum
    }

    /// Weighted misses of one row, color, and class (summed over CPUs) —
    /// the heatmap cell.
    pub fn array_color_class(&self, row: usize, color: usize, class: MissClassId) -> u64 {
        let c = class.index();
        (0..self.cpus)
            .map(|cpu| self.tot[self.idx(row, color, cpu, c)])
            .sum()
    }

    /// Weighted misses of one row on one CPU, all colors and classes.
    pub fn array_cpu(&self, row: usize, cpu: usize) -> u64 {
        let mut sum = 0;
        for color in 0..self.colors {
            for class in 0..CLASSES {
                sum += self.tot[self.idx(row, color, cpu, class)];
            }
        }
        sum
    }

    /// Weighted misses of one class over the whole tensor.
    pub fn class_total(&self, class: MissClassId) -> u64 {
        let c = class.index();
        self.tot
            .iter()
            .skip(c)
            .step_by(CLASSES)
            .copied()
            .sum::<u64>()
    }

    /// Weighted misses over the whole tensor.
    pub fn misses_total(&self) -> u64 {
        self.tot.iter().sum()
    }

    /// The miss service latency histogram (phase-weighted).
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// The inter-miss distance histogram (phase-weighted).
    pub fn inter_miss(&self) -> &LogHistogram {
        &self.gap
    }

    /// Pressure per color: faults whose preferred color was denied.
    pub fn fallbacks_by_color(&self) -> &[u64] {
        &self.fallbacks
    }

    /// Occupancy snapshots as `(cycles, flat per-color page counts)`;
    /// snapshot `i` covers `flat[i*colors..(i+1)*colors]`. The first
    /// snapshot is the post-warm-up baseline, then one per measured phase.
    pub fn occupancy(&self) -> (&[u64], &[u64]) {
        (&self.snap_cycles, &self.snap_occ)
    }

    /// The top `n` `(row, color, conflict_misses)` offender cells, sorted
    /// by descending conflict count (ties broken by row then color so the
    /// order is deterministic). Allocates; call at report time only.
    pub fn top_conflicts(&self, n: usize) -> Vec<(usize, usize, u64)> {
        let mut cells = Vec::with_capacity((self.arrays + 1) * self.colors);
        for row in 0..=self.arrays {
            for color in 0..self.colors {
                let c = self.array_color_class(row, color, MissClassId::Conflict);
                if c > 0 {
                    cells.push((row, color, c));
                }
            }
        }
        cells.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        cells.truncate(n);
        cells
    }

    /// Clears all accumulated state without releasing storage, so one
    /// pre-sized probe can observe a second run allocation-free.
    pub fn reset(&mut self) {
        self.cur.fill(0);
        self.tot.fill(0);
        self.cur_latency.clear();
        self.latency.clear();
        self.cur_gap.clear();
        self.gap.clear();
        self.cur_batch.clear();
        self.batch.clear();
        self.last_miss.fill(u64::MAX);
        self.occ.fill(0);
        self.fallbacks.fill(0);
        self.snap_cycles.clear();
        self.snap_occ.clear();
        self.weight = 1;
        self.measured = false;
        self.events = 0;
    }

    fn snapshot(&mut self, cycle: u64) {
        self.snap_cycles.push(cycle);
        self.snap_occ.extend_from_slice(&self.occ);
    }

    fn hist_json(h: &LogHistogram) -> JsonValue {
        let mut v = JsonValue::object();
        v.push("count", JsonValue::UInt(h.count()));
        v.push("min", JsonValue::UInt(h.min()));
        v.push("max", JsonValue::UInt(h.max()));
        v.push(
            "mean",
            JsonValue::Float((h.mean() * 1000.0).round() / 1000.0),
        );
        v.push("p50", JsonValue::UInt(h.quantile(0.5)));
        v.push("p90", JsonValue::UInt(h.quantile(0.9)));
        v.push("p99", JsonValue::UInt(h.quantile(0.99)));
        v.push(
            "buckets",
            JsonValue::Array(
                h.nonzero_buckets()
                    .map(|(lo, c)| JsonValue::Array(vec![JsonValue::UInt(lo), JsonValue::UInt(c)]))
                    .collect(),
            ),
        );
        v
    }

    /// Serializes the attributed run to the stable JSON schema. `names`
    /// labels the real arrays (rows beyond `names` fall back to
    /// `array<i>`); the synthetic last row is always named `(other)`.
    pub fn to_json(&self, names: &[String]) -> JsonValue {
        let mut doc = JsonValue::object();

        let mut dims = JsonValue::object();
        dims.push("arrays", JsonValue::UInt(self.arrays as u64));
        dims.push("colors", JsonValue::UInt(self.colors as u64));
        dims.push("cpus", JsonValue::UInt(self.cpus as u64));
        dims.push("classes", JsonValue::UInt(CLASSES as u64));
        doc.push("dims", dims);

        doc.push(
            "classes",
            JsonValue::Array(
                MissClassId::ALL
                    .iter()
                    .map(|c| JsonValue::Str(c.label().into()))
                    .collect(),
            ),
        );

        let mut totals = JsonValue::object();
        totals.push("misses", JsonValue::UInt(self.misses_total()));
        let mut by_class = JsonValue::object();
        for class in MissClassId::ALL {
            by_class.push(class.label(), JsonValue::UInt(self.class_total(class)));
        }
        totals.push("by_class", by_class);
        doc.push("totals", totals);

        let row_name = |row: usize| -> String {
            if row == self.arrays {
                "(other)".to_string()
            } else {
                names
                    .get(row)
                    .cloned()
                    .unwrap_or_else(|| format!("array{row}"))
            }
        };

        doc.push(
            "arrays",
            JsonValue::Array(
                (0..=self.arrays)
                    .map(|row| {
                        let mut a = JsonValue::object();
                        a.push("name", JsonValue::Str(row_name(row)));
                        a.push("misses", JsonValue::UInt(self.array_total(row)));
                        let mut by_class = JsonValue::object();
                        for class in MissClassId::ALL {
                            by_class
                                .push(class.label(), JsonValue::UInt(self.array_class(row, class)));
                        }
                        a.push("by_class", by_class);
                        a.push(
                            "conflict_by_color",
                            JsonValue::Array(
                                (0..self.colors)
                                    .map(|color| {
                                        JsonValue::UInt(self.array_color_class(
                                            row,
                                            color,
                                            MissClassId::Conflict,
                                        ))
                                    })
                                    .collect(),
                            ),
                        );
                        a.push(
                            "misses_by_cpu",
                            JsonValue::Array(
                                (0..self.cpus)
                                    .map(|cpu| JsonValue::UInt(self.array_cpu(row, cpu)))
                                    .collect(),
                            ),
                        );
                        a
                    })
                    .collect(),
            ),
        );

        let mut hists = JsonValue::object();
        hists.push("miss_latency_cycles", Self::hist_json(&self.latency));
        hists.push("inter_miss_cycles", Self::hist_json(&self.gap));
        hists.push("batch_ops", Self::hist_json(&self.batch));
        doc.push("histograms", hists);

        let mut colors = JsonValue::object();
        colors.push(
            "conflict_by_color",
            JsonValue::Array(
                (0..self.colors)
                    .map(|color| {
                        JsonValue::UInt(
                            (0..=self.arrays)
                                .map(|row| {
                                    self.array_color_class(row, color, MissClassId::Conflict)
                                })
                                .sum(),
                        )
                    })
                    .collect(),
            ),
        );
        colors.push(
            "fallback_faults_by_color",
            JsonValue::Array(self.fallbacks.iter().map(|&f| JsonValue::UInt(f)).collect()),
        );
        let mut occupancy = JsonValue::object();
        occupancy.push(
            "cycles",
            JsonValue::Array(
                self.snap_cycles
                    .iter()
                    .map(|&c| JsonValue::UInt(c))
                    .collect(),
            ),
        );
        occupancy.push(
            "mapped_pages",
            JsonValue::Array(
                self.snap_occ
                    .chunks(self.colors)
                    .map(|snap| {
                        JsonValue::Array(snap.iter().map(|&p| JsonValue::UInt(p)).collect())
                    })
                    .collect(),
            ),
        );
        colors.push("occupancy", occupancy);
        doc.push("colors", colors);

        doc
    }
}

impl Probe for AttributionProbe {
    #[inline]
    fn on_classified_miss(
        &mut self,
        cpu: usize,
        cycle: u64,
        class: MissClassId,
        latency_cycles: u64,
        attribute: impl Fn() -> (u32, u32),
    ) {
        self.events += 1;
        let (array_id, color) = attribute();
        let row = self.row_of(array_id);
        let color = (color as usize).min(self.colors - 1);
        let cpu = cpu.min(self.cpus - 1);
        self.cur[self.idx(row, color, cpu, class.index())] += 1;
        self.cur_latency.record(latency_cycles);
        let last = self.last_miss[cpu];
        if last != u64::MAX && cycle >= last {
            self.cur_gap.record(cycle - last);
        }
        self.last_miss[cpu] = cycle;
    }

    #[inline]
    fn on_page_fault(
        &mut self,
        _cpu: usize,
        _cycle: u64,
        _vpn: u64,
        color: u32,
        outcome: HintOutcome,
    ) {
        self.events += 1;
        let color = (color as usize).min(self.colors - 1);
        self.occ[color] += 1;
        if outcome == HintOutcome::Fallback {
            self.fallbacks[color] += 1;
        }
    }

    #[inline]
    fn on_recolor(&mut self, _cpu: usize, _cycle: u64, _vpn: u64, from: u32, to: u32) {
        self.events += 1;
        let from = (from as usize).min(self.colors - 1);
        let to = (to as usize).min(self.colors - 1);
        self.occ[from] = self.occ[from].saturating_sub(1);
        self.occ[to] += 1;
    }

    #[inline]
    fn on_run_batch(&mut self, _cpu: usize, ops: u64) {
        self.events += 1;
        self.cur_batch.record(ops);
    }

    fn on_phase_start(&mut self, _index: usize, count: u64) {
        if !self.measured {
            self.measured = true;
            self.snapshot(0); // post-warm-up baseline
        }
        // Drop anything recorded outside a phase window (warm-up pass,
        // prefaulting): only measured-phase events are attributed.
        self.cur.fill(0);
        self.cur_latency.clear();
        self.cur_gap.clear();
        self.cur_batch.clear();
        self.last_miss.fill(u64::MAX);
        self.weight = count.max(1);
    }

    fn on_phase_end(&mut self, _index: usize, end_cycle: u64) {
        let k = self.weight;
        for (t, &c) in self.tot.iter_mut().zip(self.cur.iter()) {
            *t += c * k;
        }
        self.latency.merge_scaled(&self.cur_latency, k);
        self.gap.merge_scaled(&self.cur_gap, k);
        self.batch.merge_scaled(&self.cur_batch, k);
        self.cur.fill(0);
        self.cur_latency.clear();
        self.cur_gap.clear();
        self.cur_batch.clear();
        self.snapshot(end_cycle);
    }

    fn event_count(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> AttributionProbe {
        AttributionProbe::new(2, 4, 2, 3)
    }

    #[test]
    fn events_outside_phases_are_discarded() {
        let mut p = probe();
        p.on_classified_miss(0, 10, MissClassId::Conflict, 50, || (0, 1));
        p.on_phase_start(0, 1);
        p.on_phase_end(0, 100);
        assert_eq!(p.misses_total(), 0, "warm-up misses must not count");
    }

    #[test]
    fn phase_weighting_multiplies_counts() {
        let mut p = probe();
        p.on_phase_start(0, 11);
        p.on_classified_miss(0, 10, MissClassId::Conflict, 50, || (0, 1));
        p.on_classified_miss(1, 20, MissClassId::Capacity, 60, || (1, 2));
        p.on_phase_end(0, 100);
        assert_eq!(p.misses_total(), 22);
        assert_eq!(p.cell(0, 1, 0, MissClassId::Conflict), 11);
        assert_eq!(p.cell(1, 2, 1, MissClassId::Capacity), 11);
        assert_eq!(p.class_total(MissClassId::Conflict), 11);
        assert_eq!(p.array_total(0), 11);
        assert_eq!(p.latency().count(), 22);
        assert_eq!(p.latency().max(), 60);
    }

    #[test]
    fn unknown_arrays_land_in_other_row() {
        let mut p = probe();
        p.on_phase_start(0, 1);
        p.on_classified_miss(0, 10, MissClassId::Cold, 50, || (ATTR_OTHER_ARRAY, 0));
        p.on_classified_miss(0, 20, MissClassId::Cold, 50, || (7, 0));
        p.on_phase_end(0, 100);
        assert_eq!(p.array_total(2), 2, "both land in the (other) row");
    }

    #[test]
    fn inter_miss_distances_are_per_cpu_and_per_phase() {
        let mut p = probe();
        p.on_phase_start(0, 1);
        p.on_classified_miss(0, 100, MissClassId::Cold, 10, || (0, 0));
        p.on_classified_miss(1, 500, MissClassId::Cold, 10, || (0, 0));
        p.on_classified_miss(0, 130, MissClassId::Cold, 10, || (0, 0));
        p.on_phase_end(0, 600);
        // Only CPU 0 had two misses: one 30-cycle gap.
        assert_eq!(p.inter_miss().count(), 1);
        assert_eq!(p.inter_miss().min(), 30);
        p.on_phase_start(1, 1);
        p.on_classified_miss(0, 1000, MissClassId::Cold, 10, || (0, 0));
        p.on_phase_end(1, 1100);
        // The gap from cycle 130 to 1000 crosses a phase boundary: dropped.
        assert_eq!(p.inter_miss().count(), 1);
    }

    #[test]
    fn occupancy_tracks_faults_and_recolors_across_phases() {
        let mut p = probe();
        p.on_page_fault(0, 1, 100, 1, HintOutcome::Honored);
        p.on_page_fault(0, 2, 101, 1, HintOutcome::Fallback);
        p.on_phase_start(0, 1);
        p.on_recolor(0, 50, 100, 1, 3);
        p.on_phase_end(0, 100);
        let (cycles, flat) = p.occupancy();
        assert_eq!(cycles, &[0, 100]);
        // Baseline: two pages on color 1 (warm-up faults are state).
        assert_eq!(&flat[0..4], &[0, 2, 0, 0]);
        // After the recolor: one page each on colors 1 and 3.
        assert_eq!(&flat[4..8], &[0, 1, 0, 1]);
        assert_eq!(p.fallbacks_by_color(), &[0, 1, 0, 0]);
    }

    #[test]
    fn top_conflicts_sorts_deterministically() {
        let mut p = probe();
        p.on_phase_start(0, 2);
        p.on_classified_miss(0, 1, MissClassId::Conflict, 10, || (0, 3));
        p.on_classified_miss(0, 2, MissClassId::Conflict, 10, || (1, 3));
        p.on_classified_miss(0, 3, MissClassId::Conflict, 10, || (1, 3));
        p.on_classified_miss(0, 4, MissClassId::Cold, 10, || (0, 2));
        p.on_phase_end(0, 10);
        let top = p.top_conflicts(10);
        assert_eq!(top, vec![(1, 3, 4), (0, 3, 2)]);
    }

    #[test]
    fn json_schema_is_stable_and_consistent() {
        let mut p = probe();
        p.on_page_fault(0, 1, 100, 1, HintOutcome::Honored);
        p.on_phase_start(0, 3);
        p.on_classified_miss(0, 10, MissClassId::Conflict, 50, || (0, 1));
        p.on_run_batch(0, 16);
        p.on_phase_end(0, 200);
        let doc = p.to_json(&["a".to_string(), "b".to_string()]);
        assert_eq!(
            doc.get("dims").unwrap().get("arrays").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            doc.get("totals").unwrap().get("misses").unwrap().as_u64(),
            Some(3)
        );
        let arrays = doc.get("arrays").unwrap().as_array().unwrap();
        assert_eq!(arrays.len(), 3);
        assert_eq!(arrays[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(arrays[2].get("name").unwrap().as_str(), Some("(other)"));
        assert_eq!(
            arrays[0]
                .get("conflict_by_color")
                .unwrap()
                .as_array()
                .unwrap()[1]
                .as_u64(),
            Some(3)
        );
        let h = doc.get("histograms").unwrap().get("batch_ops").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(3));
        // Round-trips through the parser.
        let text = doc.to_string_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = probe();
        p.on_page_fault(0, 1, 100, 1, HintOutcome::Honored);
        p.on_phase_start(0, 2);
        p.on_classified_miss(0, 10, MissClassId::Conflict, 50, || (0, 1));
        p.on_phase_end(0, 100);
        p.reset();
        assert_eq!(p.misses_total(), 0);
        assert_eq!(p.event_count(), 0);
        assert_eq!(p.occupancy().0.len(), 0);
        assert!(p.latency().is_empty());
    }
}
