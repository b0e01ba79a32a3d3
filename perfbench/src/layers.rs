//! The traced run: per-layer metrics of one workload and seed.
//!
//! The run enables the program's own telemetry (stride-1 dispatch profiler
//! and a final metrics snapshot, trace off) through the public spec API,
//! records spans around every facade call, and then replays the run's own
//! data through each layer's public functions to get unit costs. It adds no
//! instrumentation to the program.

use crate::clock::cpu_timed;
use crate::fidelity::{Fidelity, SampledBlock};
use crate::run::{pass, Pass, PassConfig};
use crate::stats::{min, percentile, Envelope};
use crate::trace::Tracer;
use crate::workloads::Workload;
use rtem::aggregator::{BillingEngine, CollectionOrigin, VerifierConfig, WindowVerifier};
use rtem::chain::{audit_chain, merkle_root, Digest, LedgerEntry, MeteringLedger, Sha256};
use rtem::codecs::{encode, parse};
use rtem::device::LocalStore;
use rtem::metrics::accuracy_windows;
use rtem::net::{BackhaulMesh, ClientId, MeasurementRecord, MqttBroker, Packet};
use rtem::prelude::*;
use rtem::sensors::{Branch, GridNetwork, Ina219Model};
use std::hint::black_box;

/// Steps of the traced run and of its untraced reference: enough for a
/// 99th percentile of step time with ten samples beyond it.
pub const TRACE_STEPS: u64 = 1000;

/// Set-ups timed (as `rtem.build_world` spans) before each traced pass.
const BUILDS_PER_REPEAT: usize = 3;

/// Blocks of the first network kept for the chain, codec and billing
/// replays.
const SAMPLE_BLOCKS: usize = 6;

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("rtem.build_world_s", "s"),
    ("rtem.step_ms_p50", "ms"),
    ("rtem.step_ms_p99", "ms"),
    ("rtem.finish_s", "s"),
    ("rtem.attributed_frac", "fraction"),
    ("rtem.trace_overhead_frac", "fraction"),
    ("core.measure_tick_ns", "ns"),
    ("core.upstream_sample_ns", "ns"),
    ("core.window_end_us", "us"),
    ("core.broker_poll_ns", "ns"),
    ("core.backhaul_polls", "count"),
    ("core.events_dispatched", "count"),
    ("core.queue_high_water", "count"),
    ("core.unattributed_frac", "fraction"),
    ("core.accuracy_windows_s", "s"),
    ("core.world_metrics_s", "s"),
    ("device.measure_ticks", "count"),
    ("device.reports_sent", "count"),
    ("device.records_buffered", "count"),
    ("device.records_dropped", "count"),
    ("device.store_ns_per_record", "ns"),
    ("sensors.ina219_ns_per_sample", "ns"),
    ("sensors.grid_eval_ns_per_site", "ns"),
    ("net.broker_published", "count"),
    ("net.broker_delivered", "count"),
    ("net.broker_dropped", "count"),
    ("net.link_packets_lost", "count"),
    ("net.broker_ns_per_delivery", "ns"),
    ("net.backhaul_ns_per_send", "ns"),
    ("codecs.encode_ns.iec62056", "ns"),
    ("codecs.encode_ns.sml", "ns"),
    ("codecs.encode_ns.modbus_rtu", "ns"),
    ("codecs.encode_ns.wmbus", "ns"),
    ("codecs.parse_ns.iec62056", "ns"),
    ("codecs.parse_ns.sml", "ns"),
    ("codecs.parse_ns.modbus_rtu", "ns"),
    ("codecs.parse_ns.wmbus", "ns"),
    ("codecs.wire_bytes_per_record", "bytes"),
    ("codecs.parse_failures", "count"),
    ("aggregator.records_accepted", "count"),
    ("aggregator.duplicates_filtered", "count"),
    ("aggregator.reports_nacked", "count"),
    ("aggregator.memberships", "count"),
    ("aggregator.bill_ns_per_record", "ns"),
    ("aggregator.verify_ns_per_window", "ns"),
    ("aggregator.resident_blocks", "count"),
    ("aggregator.resident_series", "count"),
    ("chain.sha256_mb_per_s", "MB/s"),
    ("chain.merkle_us_per_block", "us"),
    ("chain.commit_us_per_block", "us"),
    ("chain.audit_us_per_block", "us"),
    ("chain.blocks", "count"),
    ("chain.entries", "count"),
];

/// The traced run's results.
pub struct Traced {
    /// One value per per-layer metric, in [`PER_LAYER`] order.
    pub values: Vec<f64>,
    /// Failed checks (digest mismatches, replay round-trips).
    pub failures: Vec<String>,
    /// Digest of the first pass; every other pass must match it.
    pub digest: Digest,
    /// The spans, for writing out.
    pub tracer: Tracer,
}

/// Runs the traced measurement: `repeats` rounds of one untraced reference
/// pass and one telemetry-enabled traced pass at [`TRACE_STEPS`] steps,
/// then the layer replays on the fastest traced pass. The two kinds of pass
/// alternate, so a change in the host's load during the run falls on both
/// envelopes alike. Both sides scan the ledgers between steps, so telemetry
/// and spans are their only difference.
pub fn traced(workload: Workload, seed: u64, repeats: usize) -> Result<Traced, String> {
    let spec = workload.spec(seed);
    let step = SimDuration::from_micros(spec.horizon.as_micros().div_ceil(TRACE_STEPS));
    let telemetry = TelemetryConfig::default()
        .with_profile(true)
        .with_profile_sample_stride(1);
    let traced_spec = spec.clone().with_telemetry(telemetry);
    let untraced_config = PassConfig {
        step,
        assess: true,
        ..PassConfig::of(workload)
    };
    let traced_config = PassConfig {
        sample_blocks: SAMPLE_BLOCKS,
        keep_report: true,
        ..untraced_config
    };
    let mut failures = Vec::new();
    let mut first = None;
    let mut tracer = Tracer::default();
    let (mut untraced, mut traced_env) = (Envelope::default(), Envelope::default());
    let mut build_s = Vec::new();
    let mut finish_s = f64::INFINITY;
    let mut best: Option<Pass> = None;
    for _ in 0..repeats {
        let reference = pass(spec.clone(), untraced_config, None, None)?;
        untraced.add_repeat(&reference.step_secs)?;
        check_same_run(&mut first, &reference, "untraced", &mut failures);

        for _ in 0..BUILDS_PER_REPEAT {
            let ((world, secs), _) = tracer.span("rtem.build_world", |_| {
                cpu_timed(|| Experiment::new(workload.spec(seed)).build_world())
            });
            drop(world.map_err(|e| format!("invalid spec: {e}"))?);
            build_s.push(secs);
        }
        let traced_pass = pass(traced_spec.clone(), traced_config, Some(&mut tracer), None)?;
        traced_env.add_repeat(&traced_pass.step_secs)?;
        check_same_run(&mut first, &traced_pass, "traced", &mut failures);
        finish_s = finish_s.min(traced_pass.finish_secs);
        let total = |p: &Pass| p.step_secs.iter().sum::<f64>();
        if best
            .as_ref()
            .map_or(true, |b| total(&traced_pass) < total(b))
        {
            best = Some(traced_pass);
        }
    }
    let best = best.ok_or("no traced repeats were run")?;
    let report = best
        .report
        .as_ref()
        .expect("traced passes keep their report");
    let replay = tracer.span("replay", |t| Replay::run(t, &spec, report, &best.sample));
    let (replay, _) = replay;
    failures.extend(replay.failures.iter().cloned());

    let telemetry = report
        .telemetry
        .as_ref()
        .ok_or("the traced run collected no telemetry")?;
    let profile = telemetry
        .profile
        .as_ref()
        .ok_or("the traced run collected no dispatch profile")?;
    let counter = |id: MetricId| telemetry.final_snapshot.get(id) as f64;
    let kind = |label: &str| {
        profile.kind(label).map_or((0.0, 0.0), |k| {
            (k.histogram.mean_ns(), k.histogram.count() as f64)
        })
    };
    let world = report.world();
    let traced_run_s = traced_env.total();
    let untraced_run_s = untraced.total();
    let step_ms: Vec<f64> = best.step_secs.iter().map(|s| s * 1e3).collect();

    let devices: Vec<_> = world.devices().map(|(_, d)| d.counters()).collect();
    let sum_devices = |f: fn(&rtem::device::HealthCounters) -> u64| -> f64 {
        devices.iter().map(f).sum::<u64>() as f64
    };
    let (mut resident_blocks, mut resident_series, mut memberships) = (0, 0, 0);
    for addr in world.network_addresses() {
        if let Some(aggregator) = world.aggregator(addr) {
            let (blocks, series) = aggregator.resident_footprint();
            resident_blocks += blocks;
            resident_series += series;
            memberships += aggregator.registry().len();
        }
    }
    let blocks: usize = report.ledgers.iter().map(|l| l.blocks).sum();
    let entries: usize = report.ledgers.iter().map(|l| l.entries).sum();

    // Bottom-up account of the run: every layer's replayed unit cost times
    // the run's own count of that operation.
    let (upstream_ns, upstream_count) = kind("UpstreamSample");
    let (_, backhaul_polls) = kind("BackhaulPoll");
    let ticks = counter(MetricId::DeviceMeasureTicks);
    let sealed_blocks = report.sealed_blocks() as f64;
    let attributed_ns = replay.ina219_ns * (ticks + upstream_count)
        + replay.store_ns * sum_devices(|c| c.records_buffered)
        + replay.grid_ns * upstream_count
        + replay.broker_ns * counter(MetricId::BrokerDelivered)
        + replay.backhaul_ns * backhaul_polls
        + replay.codec_mean_ns() * counter(MetricId::CodecTelegramsSent)
        + replay.bill_ns * counter(MetricId::AggRecordsAccepted)
        + replay.verify_ns * counter(MetricId::AggVerdicts)
        + replay.commit_us * 1e3 * sealed_blocks;

    let mut values: Vec<f64> = vec![
        min(&build_s).unwrap_or(0.0),
        percentile(&step_ms, 0.5).unwrap_or(0.0),
        percentile(&step_ms, 0.99).unwrap_or(0.0),
        finish_s,
        attributed_ns / 1e9 / traced_run_s,
        traced_run_s / untraced_run_s - 1.0,
        kind("MeasureTick").0,
        upstream_ns,
        kind("WindowEnd").0 / 1e3,
        kind("BrokerPoll").0,
        backhaul_polls,
        counter(MetricId::SchedulerEventsDispatched),
        counter(MetricId::SchedulerQueueHighWater),
        // The dispatch profiler reads the wall clock.
        1.0 - profile.total_ns() as f64 / 1e9 / best.wall_run_secs,
        replay.accuracy_windows_s,
        replay.world_metrics_s,
        ticks,
        sum_devices(|c| c.reports_sent),
        sum_devices(|c| c.records_buffered),
        sum_devices(|c| c.records_dropped),
        replay.store_ns,
        replay.ina219_ns,
        replay.grid_ns,
        counter(MetricId::BrokerPublishes),
        counter(MetricId::BrokerDelivered),
        counter(MetricId::BrokerDropped),
        counter(MetricId::LinkPacketsLost),
        replay.broker_ns,
        replay.backhaul_ns,
    ];
    values.extend(replay.encode_ns);
    values.extend(replay.parse_ns);
    values.extend([
        replay.wire_bytes_per_record,
        counter(MetricId::CodecParseFailures),
        counter(MetricId::AggRecordsAccepted),
        counter(MetricId::AggRecordsDuplicateFiltered),
        counter(MetricId::AggReportsNacked),
        memberships as f64,
        replay.bill_ns,
        replay.verify_ns,
        resident_blocks as f64,
        resident_series as f64,
        replay.sha256_mb_per_s,
        replay.merkle_us,
        replay.commit_us,
        replay.audit_us,
        blocks as f64,
        entries as f64,
    ]);
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    // Every assessed pass reports the same failed checks once each.
    failures.sort();
    failures.dedup();
    for ((name, _), value) in PER_LAYER.iter().zip(&values) {
        if !value.is_finite() {
            failures.push(format!("{name} is not finite"));
        }
    }
    Ok(Traced {
        values,
        failures,
        digest: first.map_or(Digest::ZERO, |(digest, _)| digest),
        tracer,
    })
}

/// Checks a pass against the first one: the same report digest and, the
/// passes being assessed, bit-identical simulated metrics.
fn check_same_run(
    first: &mut Option<(Digest, Fidelity)>,
    pass: &Pass,
    label: &str,
    failures: &mut Vec<String>,
) {
    let fidelity = pass
        .fidelity
        .as_ref()
        .expect("traced-run passes are assessed");
    failures.extend(fidelity.failures.iter().cloned());
    match first {
        None => *first = Some((pass.digest, fidelity.clone())),
        Some((digest, _)) if *digest != pass.digest => failures.push(format!(
            "{label} pass digest {} differs from {digest}",
            pass.digest
        )),
        Some((_, first)) if first != fidelity => {
            failures.push(format!("{label} pass simulated metrics differ"))
        }
        Some(_) => {}
    }
}

/// Fastest CPU seconds per operation over `rounds` rounds of `batch`, each
/// round returning how many operations it did.
fn per_op(rounds: usize, mut batch: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let (ops, secs) = cpu_timed(&mut batch);
        best = best.min(secs / ops.max(1) as f64);
    }
    best
}

/// Unit costs of each layer, from the run's own data.
struct Replay {
    sha256_mb_per_s: f64,
    merkle_us: f64,
    commit_us: f64,
    audit_us: f64,
    bill_ns: f64,
    verify_ns: f64,
    encode_ns: [f64; 4],
    parse_ns: [f64; 4],
    wire_bytes_per_record: f64,
    ina219_ns: f64,
    grid_ns: f64,
    store_ns: f64,
    broker_ns: f64,
    backhaul_ns: f64,
    accuracy_windows_s: f64,
    world_metrics_s: f64,
    failures: Vec<String>,
}

/// Replay rounds; each unit cost is the fastest round's.
const ROUNDS: usize = 5;

impl Replay {
    fn run(
        tracer: &mut Tracer,
        spec: &ScenarioSpec,
        report: &RunReport,
        sample: &[SampledBlock],
    ) -> Replay {
        let mut failures = Vec::new();
        let entries: Vec<LedgerEntry> = sample
            .iter()
            .flat_map(|b| b.entries.iter().copied())
            .collect();
        if entries.is_empty() {
            failures.push("no ledger entries were sampled for the replays".to_string());
        }
        let records: Vec<MeasurementRecord> = entries.iter().map(record_of).collect();

        let ((sha256_mb_per_s, merkle_us, commit_us, audit_us), _) = tracer
            .span("replay.chain", |_| {
                chain_costs(sample, &entries, &mut failures)
            });
        let ((bill_ns, verify_ns), _) = tracer.span("replay.aggregator", |_| {
            aggregator_costs(spec, report, &entries)
        });
        let ((encode_ns, parse_ns, wire_bytes_per_record), _) = tracer
            .span("replay.codecs", |_| {
                codec_costs(spec, &records, &mut failures)
            });
        let ((ina219_ns, grid_ns), _) =
            tracer.span("replay.sensors", |_| sensor_costs(spec, &records));
        let (store_ns, _) = tracer.span("replay.device", |_| store_cost(&records));
        let ((broker_ns, backhaul_ns), _) =
            tracer.span("replay.net", |_| net_costs(spec, &records, &mut failures));
        let ((accuracy_windows_s, world_metrics_s), _) =
            tracer.span("replay.core", |_| core_costs(spec, report));
        Replay {
            sha256_mb_per_s,
            merkle_us,
            commit_us,
            audit_us,
            bill_ns,
            verify_ns,
            encode_ns,
            parse_ns,
            wire_bytes_per_record,
            ina219_ns,
            grid_ns,
            store_ns,
            broker_ns,
            backhaul_ns,
            accuracy_windows_s,
            world_metrics_s,
            failures,
        }
    }

    /// Mean encode + parse cost of one telegram across the real kinds.
    fn codec_mean_ns(&self) -> f64 {
        (self.encode_ns.iter().sum::<f64>() + self.parse_ns.iter().sum::<f64>()) / 4.0
    }
}

/// A ledger entry back as the device's measurement record.
fn record_of(entry: &LedgerEntry) -> MeasurementRecord {
    let span_us = entry
        .interval_end_us
        .saturating_sub(entry.interval_start_us)
        .max(1);
    MeasurementRecord {
        device: DeviceId(entry.device_id),
        sequence: entry.sequence,
        interval_start_us: entry.interval_start_us,
        interval_end_us: entry.interval_end_us,
        mean_current_ua: entry.charge_uas * 1_000_000 / span_us,
        charge_uas: entry.charge_uas,
        backfilled: entry.backfilled,
    }
}

/// SHA-256 throughput, and Merkle root, commit and audit cost per block.
fn chain_costs(
    sample: &[SampledBlock],
    entries: &[LedgerEntry],
    failures: &mut Vec<String>,
) -> (f64, f64, f64, f64) {
    let bytes: Vec<u8> = entries.iter().flat_map(LedgerEntry::to_bytes).collect();
    let sha_s = per_op(ROUNDS, || {
        black_box(Sha256::digest(black_box(&bytes)));
        1
    });
    let leaves: Vec<Vec<Vec<u8>>> = sample
        .iter()
        .map(|b| b.entries.iter().map(LedgerEntry::to_bytes).collect())
        .collect();
    let merkle_s = per_op(ROUNDS, || {
        for block in &leaves {
            black_box(merkle_root(black_box(block)));
        }
        leaves.len()
    });
    let writer = sample.first().map_or(1, |b| b.writer);
    let build = || {
        let mut ledger = MeteringLedger::new(writer, 0);
        for block in sample {
            for entry in &block.entries {
                ledger.stage(*entry);
            }
            ledger
                .commit_block(writer, block.timestamp_us)
                .expect("sampled blocks replay in timestamp order");
        }
        ledger
    };
    let commit_s = per_op(ROUNDS, || {
        black_box(build());
        sample.len()
    });
    let ledger = build();
    let audit_s = per_op(ROUNDS, || {
        black_box(audit_chain(ledger.chain(), None));
        sample.len()
    });
    if !audit_chain(ledger.chain(), None).is_clean() {
        failures.push("the replayed chain does not audit clean".to_string());
    }
    (
        bytes.len() as f64 / 1e6 / sha_s,
        merkle_s * 1e6,
        commit_s * 1e6,
        audit_s * 1e6,
    )
}

/// Billing cost per record and verification cost per window.
fn aggregator_costs(
    spec: &ScenarioSpec,
    report: &RunReport,
    entries: &[LedgerEntry],
) -> (f64, f64) {
    let bill_s = per_op(ROUNDS, || {
        let mut engine = BillingEngine::new(spec.tariff.clone(), Millivolts::usb_bus());
        for e in entries {
            engine.bill_record(
                DeviceId(e.device_id),
                e.charge_uas,
                e.interval_start_us,
                e.interval_end_us,
                e.backfilled,
                CollectionOrigin::Home,
            );
        }
        black_box(engine);
        entries.len()
    });
    let window_s = spec.verification_window.as_secs_f64();
    let windows: Vec<(f64, f64)> = report
        .accuracy
        .iter()
        .flat_map(|a| a.windows.iter())
        .map(|w| (w.devices_total_mas / window_s, w.aggregator_mas / window_s))
        .collect();
    // Verification is a few arithmetic operations: repeat the run's
    // windows until a round is long enough to time.
    let laps = (100_000 / windows.len().max(1)).max(1);
    let verify_s = per_op(ROUNDS, || {
        let mut verifier = WindowVerifier::new(VerifierConfig::default());
        for _ in 0..laps {
            for &(reported, measured) in &windows {
                black_box(verifier.check(
                    Milliamps::new(black_box(reported)),
                    Milliamps::new(measured),
                ));
            }
        }
        laps * windows.len()
    });
    (bill_s * 1e9, verify_s * 1e9)
}

/// Encode and parse cost per telegram for each real kind, and the wire
/// bytes per record of the workload's meter-kind mix.
fn codec_costs(
    spec: &ScenarioSpec,
    records: &[MeasurementRecord],
    failures: &mut Vec<String>,
) -> ([f64; 4], [f64; 4], f64) {
    // One telegram per device report: devices report every tick, so a
    // report carries one record.
    let telegrams: Vec<Telegram> = records
        .iter()
        .map(|r| Telegram::new(r.device, Some(ScenarioSpec::network_addr(0)), vec![*r]))
        .collect();
    let (mut encode_ns, mut parse_ns) = ([0.0; 4], [0.0; 4]);
    for (i, kind) in MeterKind::REAL.into_iter().enumerate() {
        let wire: Vec<Vec<u8>> = telegrams
            .iter()
            .map(|t| encode(kind, t).expect("real meter kinds encode every telegram"))
            .collect();
        let round_trips = wire
            .iter()
            .zip(&telegrams)
            .all(|(bytes, t)| parse(kind, bytes).as_ref() == Ok(t));
        if !round_trips {
            failures.push(format!("{} telegrams do not round-trip", kind.label()));
        }
        encode_ns[i] = per_op(ROUNDS, || {
            for t in &telegrams {
                black_box(encode(kind, black_box(t)).ok());
            }
            telegrams.len()
        }) * 1e9;
        parse_ns[i] = per_op(ROUNDS, || {
            for bytes in &wire {
                black_box(parse(kind, black_box(bytes)).ok());
            }
            wire.len()
        }) * 1e9;
    }
    let kinds = if spec.meter_kinds.is_empty() {
        vec![MeterKind::Internal]
    } else {
        spec.meter_kinds.clone()
    };
    let mut bytes = 0usize;
    for kind in &kinds {
        for t in &telegrams {
            bytes += match kind {
                MeterKind::Internal => Packet::ConsumptionReport {
                    device: t.device,
                    master: t.master,
                    records: t.records.clone(),
                }
                .encode()
                .len(),
                real => encode(*real, t).map_or(0, |b| b.len()),
            };
        }
    }
    let carried = (kinds.len() * records.len()).max(1);
    (encode_ns, parse_ns, bytes as f64 / carried as f64)
}

/// INA219 cost per sample and grid evaluation cost per site.
fn sensor_costs(spec: &ScenarioSpec, records: &[MeasurementRecord]) -> (f64, f64) {
    let currents: Vec<Milliamps> = records
        .iter()
        .map(|r| Milliamps::new(r.mean_current_ua as f64 / 1000.0))
        .collect();
    let mut sensor = Ina219Model::new(spec.sensor, SimRng::seed_from_u64(spec.seed));
    let ina219_s = per_op(ROUNDS, || {
        for &current in &currents {
            black_box(sensor.measure(black_box(current)));
        }
        currents.len()
    });
    let mut grid = GridNetwork::new();
    let branches: Vec<_> = (0..spec.devices_per_network)
        .map(|_| grid.add_branch(Branch::default()))
        .collect();
    let sites: Vec<Vec<_>> = currents
        .chunks(branches.len())
        .map(|chunk| {
            branches
                .iter()
                .copied()
                .zip(chunk.iter().copied())
                .collect()
        })
        .collect();
    let grid_s = per_op(ROUNDS, || {
        for loads in &sites {
            black_box(grid.evaluate(black_box(loads)));
        }
        sites.len()
    });
    (ina219_s * 1e9, grid_s * 1e9)
}

/// Store-and-forward cost per record: buffer it, read the pending report,
/// drop it on the aggregator's ack — a device's tick on a good link.
fn store_cost(records: &[MeasurementRecord]) -> f64 {
    let capacity = rtem::device::DeviceConfig::testbed(DeviceId(0)).local_store_capacity;
    per_op(ROUNDS, || {
        let mut store = LocalStore::new(capacity);
        for (sequence, record) in records.iter().enumerate() {
            let record = MeasurementRecord {
                sequence: sequence as u64,
                ..*record
            };
            store.push(record);
            black_box(store.peek_all().len());
            store.acknowledge_through(record.sequence);
        }
        records.len()
    }) * 1e9
}

/// Broker cost per delivery at the workload's client count, and backhaul
/// cost per send across the workload's mesh.
fn net_costs(
    spec: &ScenarioSpec,
    records: &[MeasurementRecord],
    failures: &mut Vec<String>,
) -> (f64, f64) {
    let mut broker = MqttBroker::new(SimRng::seed_from_u64(spec.seed));
    let site = ClientId(1_000_000);
    broker.connect(site, spec.wifi);
    broker
        .subscribe(site, "metering/agg-1/uplink")
        .expect("valid topic filter");
    let clients: Vec<ClientId> = (0..u64::from(spec.devices_per_network))
        .map(ClientId)
        .collect();
    for &client in &clients {
        broker.connect(client, spec.wifi);
    }
    let payloads: Vec<_> = records
        .chunks(clients.len())
        .map(|chunk| {
            chunk
                .iter()
                .map(|r| {
                    Packet::ConsumptionReport {
                        device: r.device,
                        master: None,
                        records: vec![*r],
                    }
                    .encode()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut delivered = 0;
    let broker_s = per_op(ROUNDS, || {
        let mut round = 0;
        for tick in &payloads {
            for (client, payload) in clients.iter().zip(tick) {
                broker
                    .publish(
                        *client,
                        "metering/agg-1/uplink",
                        payload.clone(),
                        QoS::AtLeastOnce,
                        now,
                    )
                    .expect("connected publisher");
            }
            now += SimDuration::from_millis(100);
            round += black_box(broker.drain_due(now)).len();
        }
        delivered += round;
        round
    });
    if delivered == 0 {
        failures.push("the broker replay delivered nothing".to_string());
    }

    let addrs = spec.network_addrs();
    let mut mesh = BackhaulMesh::full_mesh(&addrs, spec.backhaul, SimRng::seed_from_u64(spec.seed));
    let mut now = SimTime::ZERO;
    let backhaul_s = per_op(ROUNDS, || {
        for (i, record) in records.iter().enumerate() {
            let from = addrs[i % addrs.len()];
            let to = addrs[(i + 1) % addrs.len()];
            let packet = Packet::ForwardedConsumption {
                device: record.device,
                collector: from,
                records: vec![*record],
            };
            // A single-network mesh has no peer to send to.
            if from != to {
                mesh.send(from, to, packet, now).expect("full mesh routes");
            }
        }
        now += SimDuration::from_secs(10);
        black_box(mesh.drain_due(now));
        records.len()
    });
    (broker_s * 1e9, backhaul_s * 1e9)
}

/// Report-side costs on the finished world: Fig. 5 windows of every
/// network and the world metrics.
fn core_costs(spec: &ScenarioSpec, report: &RunReport) -> (f64, f64) {
    let world = report.world();
    let horizon = SimTime::ZERO + spec.horizon;
    let networks = world.network_addresses();
    let accuracy_s = per_op(3, || {
        for &addr in &networks {
            black_box(accuracy_windows(
                world,
                addr,
                spec.verification_window,
                horizon,
            ));
        }
        1
    });
    let metrics_s = per_op(3, || {
        black_box(WorldMetrics::collect(world));
        1
    });
    (accuracy_s, metrics_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_match_the_benchmark_file() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        let file =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            file.matches("\"better\"").count(),
            PER_LAYER.len() + crate::END_TO_END.len()
        );
    }

    #[test]
    fn replayed_record_keeps_its_ledger_fields() {
        let entry = LedgerEntry {
            device_id: 7,
            collected_by: 1,
            billed_by: 1,
            sequence: 3,
            interval_start_us: 1_000_000,
            interval_end_us: 1_100_000,
            charge_uas: 34_100,
            backfilled: false,
        };
        let record = record_of(&entry);
        assert_eq!(record.mean_current_ua, 341_000, "34.1 mA·s over 0.1 s");
        assert_eq!(record.charge_uas, entry.charge_uas);
        assert_eq!(record.sequence, entry.sequence);
    }
}
