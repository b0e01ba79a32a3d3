//! One pass of a workload through the `rtem` facade, and the end-to-end
//! measurement built from repeated passes.

use crate::clock::cpu_timed;
use crate::fidelity::{
    assess, report_digest, Fidelity, FidelityProbe, LedgerScan, SampledBlock, BILLING_GRACE,
};
use crate::gauge::{Gauge, REFERENCE_SLICE_S};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::Workload;
use rtem::chain::Digest;
use rtem::prelude::*;
use std::time::Instant;

/// What one pass measured and produced.
pub struct Pass {
    /// CPU seconds of every timed `RunHandle::step` call, in order.
    pub step_secs: Vec<f64>,
    /// Wall-clock seconds of the timed steps together.
    pub wall_run_secs: f64,
    /// CPU seconds of `RunHandle::finish`.
    pub finish_secs: f64,
    /// Gauge slices taken beside the pass, when it was gauged.
    pub gauge: Option<PassGauge>,
    /// Digest of the report's deterministic fields.
    pub digest: Digest,
    /// Simulated fidelity and checks of the run, when assessed.
    pub fidelity: Option<Fidelity>,
    /// Blocks kept for the chain-layer replay.
    pub sample: Vec<SampledBlock>,
    /// The report, when the caller asked to keep it.
    pub report: Option<RunReport>,
}

/// Gauge slices of one pass, CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct PassGauge {
    /// Mean slice taken between the steps and right after the last one.
    pub run_slice_s: f64,
    /// Mean of the slices right before and right after `finish`.
    pub finish_slice_s: f64,
}

/// How a pass is driven.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// Simulated time per timed step.
    pub step: SimDuration,
    /// Scan the ledgers between steps and assess the report.
    pub assess: bool,
    /// Check that every device holds a membership at the horizon.
    pub require_membership: bool,
    /// Blocks to keep for the chain-layer replay.
    pub sample_blocks: usize,
    /// Keep the report in the [`Pass`].
    pub keep_report: bool,
    /// Steps between two gauge slices, when the pass is gauged.
    pub gauge_every: usize,
}

impl PassConfig {
    /// An end-to-end pass of `workload`: its own step, nothing kept.
    pub fn of(workload: Workload) -> PassConfig {
        PassConfig {
            step: workload.shape().step,
            assess: false,
            require_membership: workload.requires_membership(),
            sample_blocks: 0,
            keep_report: false,
            gauge_every: workload.shape().gauge_every,
        }
    }
}

/// CPU seconds of `f`, which runs inside a span named `name` when a tracer
/// is given.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(tracer) => tracer.span(name, |_| cpu_timed(f)).0,
        None => cpu_timed(f),
    }
}

/// Runs `spec` to its horizon in steps of `config.step`, timing every step
/// and the final `finish`, and digests the report. When assessing, the
/// sealed blocks are scanned between steps (outside the timed calls), the
/// billing checkpoint is taken `BILLING_GRACE` before the horizon and the
/// report is assessed. With a tracer, the start, every step and the finish
/// are recorded as spans inside one `rtem.pass` span. With a gauge, a slice
/// is taken after every `config.gauge_every` steps, and a few right before
/// and right after the finish, all outside the timed calls.
pub fn pass(
    spec: ScenarioSpec,
    config: PassConfig,
    mut tracer: Option<&mut Tracer>,
    mut gauge: Option<&mut Gauge>,
) -> Result<Pass, String> {
    let PassConfig {
        step,
        assess: assessed,
        require_membership,
        sample_blocks,
        keep_report,
        gauge_every,
    } = config;
    let pass_span = tracer.as_deref_mut().map(|t| t.enter("rtem.pass"));
    let horizon = SimTime::ZERO + spec.horizon;
    let checkpoint = if spec.horizon > BILLING_GRACE {
        SimTime::ZERO + (spec.horizon - BILLING_GRACE)
    } else {
        SimTime::ZERO
    };
    let (handle, _) = timed(&mut tracer, "rtem.start", || {
        Experiment::new(spec).start_probed(FidelityProbe::default())
    });
    let mut handle = handle.map_err(|e| format!("invalid spec: {e}"))?;
    let mut scan = LedgerScan::new(sample_blocks);
    let mut checkpointed = false;
    let steps = (horizon.as_micros()).div_ceil(step.as_micros().max(1)) as usize;
    let mut step_secs = Vec::with_capacity(steps);
    let mut wall_run_secs = 0.0;
    let mut run_slices = Vec::new();
    while !handle.is_finished() {
        let wall = Instant::now();
        let (_, secs) = timed(&mut tracer, "rtem.step", || handle.step(step));
        wall_run_secs += wall.elapsed().as_secs_f64();
        step_secs.push(secs);
        if let Some(gauge) = gauge.as_deref_mut() {
            if step_secs.len() % gauge_every.max(1) == 0 {
                run_slices.push(gauge.slice());
            }
        }
        let seen = handle.probe_mut().take();
        if !assessed {
            continue;
        }
        if !checkpointed && handle.position() >= checkpoint {
            scan.checkpoint(handle.world());
            checkpointed = true;
        }
        scan.scan(handle.world(), seen);
    }
    let before = gauge.as_deref_mut().map(Gauge::slices);
    let (report, finish_secs) = timed(&mut tracer, "rtem.finish", || handle.finish());
    let after = gauge.map(Gauge::slices);
    let gauge = match (before, after) {
        (Some(before), Some(after)) => {
            run_slices.extend(before);
            Some(PassGauge {
                run_slice_s: mean(&run_slices),
                finish_slice_s: mean(&[before, after].concat()),
            })
        }
        _ => None,
    };
    if let (Some(tracer), Some(id)) = (tracer, pass_span) {
        tracer.exit(id);
    }
    Ok(Pass {
        step_secs,
        wall_run_secs,
        finish_secs,
        gauge,
        digest: report_digest(&report),
        fidelity: assessed.then(|| assess(&report, &scan, require_membership)),
        sample: scan.sample().to_vec(),
        report: keep_report.then_some(report),
    })
}

/// CPU seconds of the fastest set-up (spec construction plus
/// `Experiment::build_world`) in a batch that runs until it has
/// accumulated `min_total` seconds and at least three builds. The world's
/// teardown is not timed.
pub fn setup_batch(workload: Workload, seed: u64, min_total: f64) -> Result<f64, String> {
    let (mut best, mut total, mut builds) = (f64::INFINITY, 0.0, 0);
    while total < min_total || builds < 3 {
        let (world, secs) = cpu_timed(|| Experiment::new(workload.spec(seed)).build_world());
        drop(world.map_err(|e| format!("invalid spec: {e}"))?);
        best = best.min(secs);
        total += secs;
        builds += 1;
    }
    Ok(best)
}

/// CPU seconds a set-up batch accumulates before its fastest build counts.
pub const SETUP_BATCH_SECS: f64 = 0.25;

/// The end-to-end measurement of one workload and seed.
pub struct EndToEnd {
    /// Set-up in reference seconds: median across repeats of the batch's
    /// fastest build over the repeat's mean gauge slice.
    pub setup_s: f64,
    /// Run in reference seconds: median across repeats of the step total
    /// over the repeat's mean gauge slice.
    pub run_s: f64,
    /// Report in reference seconds: median across repeats of `finish` over
    /// the slices right beside it.
    pub report_s: f64,
    /// Report digest of the first repeat.
    pub digest: Digest,
    /// Fidelity of the first repeat, plus a failure for every repeat whose
    /// digest differs from the first's.
    pub fidelity: Fidelity,
    /// Every repeat's CPU times, for the record.
    pub raw: Raw,
}

/// Per-repeat CPU seconds behind [`EndToEnd`].
#[derive(Debug, Default)]
pub struct Raw {
    /// Fastest build of the set-up batch.
    pub setup_s: Vec<f64>,
    /// Sum of the step times.
    pub run_s: Vec<f64>,
    /// Sum of the steps' wall-clock times.
    pub wall_run_s: Vec<f64>,
    /// `finish`.
    pub report_s: Vec<f64>,
    /// Mean gauge slice of the run.
    pub run_slice_s: Vec<f64>,
    /// Mean gauge slice beside `finish`.
    pub finish_slice_s: Vec<f64>,
}

/// The median of `times[i] / slices[i]`, times [`REFERENCE_SLICE_S`]:
/// host seconds at the reference host's speed.
fn at_reference_speed(times: &[f64], slices: &[f64]) -> f64 {
    let ratios: Vec<f64> = times.iter().zip(slices).map(|(t, g)| t / g).collect();
    median(&ratios).unwrap_or(f64::NAN) * REFERENCE_SLICE_S
}

/// Runs `repeats` gauged passes, each preceded by a set-up batch, so set-up,
/// run and report samples are spread across the whole measurement. Each
/// host time is divided by gauge slices taken beside it in the same repeat,
/// and the median across repeats is reported at the reference speed. The
/// first pass is assessed; a later repeat whose digest differs from the
/// first's is a failed check: the run would not be deterministic.
pub fn end_to_end(workload: Workload, seed: u64, repeats: usize) -> Result<EndToEnd, String> {
    let mut gauge = Gauge::default();
    let mut raw = Raw::default();
    let mut first: Option<(Digest, Fidelity)> = None;
    for _ in 0..repeats {
        raw.setup_s
            .push(setup_batch(workload, seed, SETUP_BATCH_SECS)?);
        let config = PassConfig {
            assess: first.is_none(),
            ..PassConfig::of(workload)
        };
        let pass = pass(workload.spec(seed), config, None, Some(&mut gauge))?;
        let slices = pass.gauge.ok_or("a gauged pass took no gauge slices")?;
        raw.run_s.push(pass.step_secs.iter().sum());
        raw.wall_run_s.push(pass.wall_run_secs);
        raw.report_s.push(pass.finish_secs);
        raw.run_slice_s.push(slices.run_slice_s);
        raw.finish_slice_s.push(slices.finish_slice_s);
        match (&mut first, pass.fidelity) {
            (None, Some(fidelity)) => first = Some((pass.digest, fidelity)),
            (Some((digest, fidelity)), _) if *digest != pass.digest => {
                fidelity.failures.push(format!(
                    "repeat digest {} differs from the first repeat's {digest}",
                    pass.digest
                ))
            }
            _ => {}
        }
    }
    let (digest, fidelity) = first.ok_or("no repeats were run")?;
    Ok(EndToEnd {
        setup_s: at_reference_speed(&raw.setup_s, &raw.run_slice_s),
        run_s: at_reference_speed(&raw.run_s, &raw.run_slice_s),
        report_s: at_reference_speed(&raw.report_s, &raw.finish_slice_s),
        digest,
        fidelity,
        raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fidelity computations on a `paper_testbed`-sized spec: every
    /// due record billed, no anomalies, the Fig. 5 gap in band, latencies
    /// within a window, and the handshake median refused (4 < 20 samples).
    #[test]
    fn testbed_fidelity_metrics() {
        let spec = ScenarioSpec::paper_testbed(42).with_horizon(SimDuration::from_secs(60));
        let config = PassConfig {
            step: SimDuration::from_millis(500),
            assess: true,
            require_membership: true,
            sample_blocks: 2,
            keep_report: true,
            gauge_every: 1,
        };
        let pass = pass(spec, config, None, None).unwrap();
        let f = pass.fidelity.as_ref().unwrap();
        assert_eq!(
            f.failures,
            vec!["thandshake_p50_s: too few samples for the percentile".to_string()]
        );
        assert_eq!(f.handshakes, 4);
        // 4 devices x ~10 records/s x (60 - 20) s, less the handshake.
        assert!((1200..=1600).contains(&f.due_records), "{}", f.due_records);
        assert_eq!(f.unbilled_due, 0);
        assert_eq!(f.billed_frac(), 1.0);
        assert_eq!(f.windows_verified, 12, "6 windows x 2 networks");
        assert_eq!(f.windows_anomalous, 0);
        assert_eq!(f.clean_window_frac(), 1.0);
        assert!(f.settled_windows > 0);
        assert_eq!(f.settled_out_of_band, 0, "mean gap {}", f.mean_gap_percent);
        assert_eq!(f.gap_in_band_frac(), 1.0);
        let report = pass.report.as_ref().unwrap();
        let entries: usize = report.ledgers.iter().map(|l| l.entries).sum();
        assert_eq!(f.sealed_entries as usize, entries);
        let (p50, p99) = (f.seal_latency_p50_s.unwrap(), f.seal_latency_p99_s.unwrap());
        // Entries are sealed at the end of the 10 s window they fall in.
        assert!(0.0 < p50 && p50 <= p99 && p99 <= 10.5, "{p50} {p99}");
        assert_eq!(pass.sample.len(), 2);
        assert_eq!(f.memberships, 4);
    }

    /// Stepping granularity changes neither the outcome nor the digest.
    #[test]
    fn digest_is_independent_of_the_step_size() {
        let spec = ScenarioSpec::paper_testbed(7).with_horizon(SimDuration::from_secs(40));
        let config = |millis| PassConfig {
            step: SimDuration::from_millis(millis),
            assess: true,
            require_membership: true,
            sample_blocks: 0,
            keep_report: false,
            gauge_every: 1,
        };
        let coarse = pass(spec.clone(), config(2000), None, None).unwrap();
        let mut tracer = Tracer::default();
        let mut gauge = Gauge::default();
        let fine = pass(spec, config(250), Some(&mut tracer), Some(&mut gauge)).unwrap();
        // Neither stepping nor the gauge slices between steps change the run.
        assert_eq!(coarse.digest, fine.digest);
        assert_eq!(coarse.fidelity, fine.fidelity);
        assert_eq!(coarse.step_secs.len(), 20);
        assert_eq!(fine.step_secs.len(), 160);
        // The traced pass recorded its start, steps and finish as spans.
        assert_eq!(tracer.secs_of("rtem.pass").len(), 1);
        assert_eq!(tracer.secs_of("rtem.start").len(), 1);
        assert_eq!(tracer.secs_of("rtem.step").len(), fine.step_secs.len());
        assert_eq!(tracer.secs_of("rtem.finish").len(), 1);
        assert!(coarse.gauge.is_none());
        let slices = fine.gauge.unwrap();
        assert!(slices.run_slice_s > 0.0 && slices.finish_slice_s > 0.0);
    }

    #[test]
    fn reference_speed_is_the_median_ratio() {
        let times = [2.0, 3.0, 9.0];
        let slices = [1.0, 1.5, 1.0];
        let reported = at_reference_speed(&times, &slices) / REFERENCE_SLICE_S;
        assert!((reported - 2.0).abs() < 1e-12, "{reported}");
        // A host twice as slow doubles both and changes nothing.
        let slow = at_reference_speed(&times.map(|t| 2.0 * t), &slices.map(|g| 2.0 * g));
        assert!((slow / REFERENCE_SLICE_S - 2.0).abs() < 1e-12);
    }

    /// A roaming device's records, collected abroad and forwarded home,
    /// still reconcile with its home bill.
    #[test]
    fn roaming_records_are_billed_at_home() {
        let mover = ScenarioSpec::device_id(0, 0);
        let spec = ScenarioSpec::paper_testbed(9)
            .with_horizon(SimDuration::from_secs(90))
            .unplug_at(SimTime::from_secs(20), mover)
            .plug_in_at(SimTime::from_secs(25), mover, ScenarioSpec::network_addr(1));
        let config = PassConfig {
            step: SimDuration::from_secs(1),
            assess: true,
            require_membership: false,
            sample_blocks: 0,
            keep_report: true,
            gauge_every: 1,
        };
        let pass = pass(spec, config, None, None).unwrap();
        let report = pass.report.as_ref().unwrap();
        assert!(report.bill(mover).unwrap().roaming_charge_uas > 0);
        let f = pass.fidelity.as_ref().unwrap();
        assert!(
            f.failures.iter().all(|m| m.starts_with("thandshake")),
            "{:?}",
            f.failures
        );
        assert_eq!(f.unbilled_due, 0);
    }
}
