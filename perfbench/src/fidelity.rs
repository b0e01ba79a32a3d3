//! Simulated-fidelity metrics and the correctness checks of one run.
//!
//! Everything here is a function of simulated state only, so it must be
//! bit-identical across repeats, across runs of the same seed and between
//! the traced and untraced runs. A speed-up that changes behaviour shows up
//! here.

use crate::stats::percentile;
use rtem::chain::ledger::LedgerEntry;
use rtem::chain::{Digest, Sha256};
use rtem::prelude::*;
use std::collections::BTreeMap;

/// The paper's Fig. 5 band for the aggregator-over-devices overhead, %.
pub const GAP_BAND_PERCENT: (f64, f64) = (0.9, 8.2);

/// Records whose device produced them at least this long before the horizon
/// must have reached a bill line by the horizon (two verification windows).
pub const BILLING_GRACE: SimDuration = SimDuration::from_secs(20);

/// Probe collecting the milestones the fidelity metrics need: which blocks
/// were sealed (so the ledger scan can read them before retention evicts
/// them) and every completed handshake's duration.
#[derive(Debug, Default)]
pub struct FidelityProbe {
    sealed: Vec<(AggregatorAddr, u64)>,
    handshakes_s: Vec<f64>,
}

impl FidelityProbe {
    /// Hands over the blocks sealed and handshake durations seen since the
    /// last call.
    pub fn take(&mut self) -> (Vec<(AggregatorAddr, u64)>, Vec<f64>) {
        (
            std::mem::take(&mut self.sealed),
            std::mem::take(&mut self.handshakes_s),
        )
    }
}

impl Probe for FidelityProbe {
    fn on_block_sealed(&mut self, _at: SimTime, network: AggregatorAddr, block: u64, _: usize) {
        self.sealed.push((network, block));
    }

    fn on_handshake(
        &mut self,
        _at: SimTime,
        _device: DeviceId,
        _network: Option<AggregatorAddr>,
        breakdown: &rtem::device::network_mgmt::HandshakeBreakdown,
    ) {
        self.handshakes_s.push(breakdown.total().as_secs_f64());
    }
}

/// One sealed block as the replay of the chain layer needs it.
#[derive(Debug, Clone)]
pub struct SampledBlock {
    /// The writer (network address) that sealed it.
    pub writer: u32,
    /// Its seal timestamp, µs.
    pub timestamp_us: u64,
    /// Its entries, in commit order.
    pub entries: Vec<LedgerEntry>,
}

/// Running scan of every ledger, fed between steps with the blocks sealed
/// during the step.
#[derive(Debug, Default)]
pub struct LedgerScan {
    /// Seal latency of every committed entry, µs: sealing block timestamp −
    /// the entry's interval end.
    latencies_us: Vec<u32>,
    /// What each home ledger holds under its own billing authority.
    billing: BillingTally,
    /// Duration of every completed handshake, simulated seconds.
    handshakes_s: Vec<f64>,
    /// Blocks announced sealed but already evicted when scanned.
    missed_blocks: u64,
    /// The first blocks of the first network to seal, kept for replay.
    sample: Vec<SampledBlock>,
    sample_limit: usize,
}

impl LedgerScan {
    /// A scan that keeps up to `sample_blocks` blocks for replay.
    pub fn new(sample_blocks: usize) -> LedgerScan {
        LedgerScan {
            sample_limit: sample_blocks,
            ..LedgerScan::default()
        }
    }

    /// Reads the blocks a [`FidelityProbe`] saw sealed since the last call
    /// and keeps the handshake durations it saw.
    pub fn scan(
        &mut self,
        world: &World,
        (sealed, handshakes_s): (Vec<(AggregatorAddr, u64)>, Vec<f64>),
    ) {
        self.handshakes_s.extend(handshakes_s);
        for (network, index) in sealed {
            let block = world
                .aggregator(network)
                .and_then(|a| a.ledger().chain().block(index));
            let Some(block) = block else {
                self.missed_blocks += 1;
                continue;
            };
            let sealed_us = block.header().timestamp_us;
            let keep = self.sample.len() < self.sample_limit
                && self.sample.first().map_or(true, |b| b.writer == network.0);
            let mut kept = Vec::new();
            for bytes in block.records() {
                let entry = LedgerEntry::from_bytes(bytes).expect("ledger holds 49-byte entries");
                self.billing.count(network.0, &entry);
                let latency = sealed_us.saturating_sub(entry.interval_end_us);
                self.latencies_us
                    .push(u32::try_from(latency).expect("seal latency under 71 minutes"));
                if keep {
                    kept.push(entry);
                }
            }
            if keep {
                self.sample.push(SampledBlock {
                    writer: network.0,
                    timestamp_us: sealed_us,
                    entries: kept,
                });
            }
        }
    }

    /// Records how many records every device has produced so far. Device
    /// sequence numbers start at 0 and grow by one per record, so these are
    /// exactly the sequences `0..n`.
    pub fn checkpoint(&mut self, world: &World) {
        self.billing.produced_at_checkpoint = Some(
            world
                .devices()
                .map(|(id, device)| (id.0, device.counters().records_buffered))
                .collect(),
        );
    }

    /// Blocks kept for the chain-layer replay.
    pub fn sample(&self) -> &[SampledBlock] {
        &self.sample
    }
}

/// Entries each network holds under its own billing authority (`billed_by`
/// is the network itself), the ones its bills must reconcile with.
#[derive(Debug, Clone, Default)]
struct BillingTally {
    /// Per (network, device): charge and entry count.
    home: BTreeMap<(u32, u64), (u64, u64)>,
    /// Per device: those entries with a sequence below the device's
    /// production count at the checkpoint.
    billed_due: BTreeMap<u64, u64>,
    /// Per device: records produced by the checkpoint.
    produced_at_checkpoint: Option<BTreeMap<u64, u64>>,
}

impl BillingTally {
    fn count(&mut self, network: u32, entry: &LedgerEntry) {
        if entry.billed_by != network {
            return;
        }
        let home = self.home.entry((network, entry.device_id)).or_default();
        home.0 += entry.charge_uas;
        home.1 += 1;
        // Before the checkpoint every entry is due; after it, those the
        // device produced before it.
        let due = self
            .produced_at_checkpoint
            .as_ref()
            .map_or(true, |produced| {
                produced
                    .get(&entry.device_id)
                    .is_some_and(|&n| entry.sequence < n)
            });
        if due {
            *self.billed_due.entry(entry.device_id).or_default() += 1;
        }
    }
}

/// The six deterministic end-to-end metrics plus what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct Fidelity {
    /// Records due by the horizon (produced at least [`BILLING_GRACE`]
    /// before it).
    pub due_records: u64,
    /// Due records that reached no bill line.
    pub unbilled_due: u64,
    /// Verification windows verified, all networks.
    pub windows_verified: u64,
    /// Of those, anomalous (fault-free runs: should be none).
    pub windows_anomalous: u64,
    /// Settled Fig. 5 windows, all networks.
    pub settled_windows: u64,
    /// Of those, outside the paper's 0.9–8.2 % band.
    pub settled_out_of_band: u64,
    /// Mean overhead of the settled windows, %.
    pub mean_gap_percent: f64,
    /// Seal latency percentiles, simulated seconds.
    pub seal_latency_p50_s: Option<f64>,
    /// See `seal_latency_p50_s`.
    pub seal_latency_p99_s: Option<f64>,
    /// Committed entries the latency percentiles cover.
    pub sealed_entries: u64,
    /// Median completed-handshake duration, simulated seconds.
    pub thandshake_p50_s: Option<f64>,
    /// Completed handshakes.
    pub handshakes: u64,
    /// Memberships held across all registries at the horizon.
    pub memberships: u64,
    /// Device measure ticks (samples taken) over the run.
    pub device_ticks: u64,
    /// Failed correctness checks, human readable. Empty means correct.
    pub failures: Vec<String>,
}

impl Fidelity {
    /// Share of due records that reached a bill line.
    pub fn billed_frac(&self) -> f64 {
        ratio(self.due_records - self.unbilled_due, self.due_records)
    }

    /// Share of verified windows that closed clean.
    pub fn clean_window_frac(&self) -> f64 {
        ratio(
            self.windows_verified - self.windows_anomalous,
            self.windows_verified,
        )
    }

    /// Share of settled windows whose Fig. 5 gap lies in the paper's band.
    pub fn gap_in_band_frac(&self) -> f64 {
        ratio(
            self.settled_windows - self.settled_out_of_band,
            self.settled_windows,
        )
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Computes the fidelity metrics of a finished run and checks it.
///
/// `require_membership`: every device must hold a membership at the
/// horizon (`fleet`, `long`; not `roam`, whose tours end in flight at
/// worst).
pub fn assess(report: &RunReport, scan: &LedgerScan, require_membership: bool) -> Fidelity {
    let world = report.world();
    let mut failures = Vec::new();

    // Every ledger audits clean and its cached accounts match the chain.
    for ledger in &report.ledgers {
        if !ledger.audit_clean || !ledger.accounts_match_chain {
            failures.push(format!(
                "ledger {:?}: audit_clean={} accounts_match_chain={}",
                ledger.network, ledger.audit_clean, ledger.accounts_match_chain
            ));
        }
    }
    if scan.missed_blocks > 0 {
        failures.push(format!(
            "{} sealed blocks were evicted before the scan read them",
            scan.missed_blocks
        ));
    }

    // Each home ledger's billed entries (committed, plus staged at the
    // horizon) reconcile with its bill lines, charge and record count.
    let mut billing = scan.billing.clone();
    if billing.produced_at_checkpoint.is_none() {
        failures.push("no billing checkpoint was taken".to_string());
    }
    for addr in world.network_addresses() {
        if let Some(aggregator) = world.aggregator(addr) {
            for entry in aggregator.ledger().staged_entries() {
                billing.count(addr.0, entry);
            }
        }
    }
    let bills: BTreeMap<(u32, u64), (u64, u64)> = report
        .bills
        .iter()
        .map(|b| ((b.network.0, b.device.0), (b.charge_uas, b.records)))
        .collect();
    if bills != billing.home {
        let mismatched = bills
            .iter()
            .filter(|(key, value)| billing.home.get(key) != Some(value))
            .count()
            + billing
                .home
                .keys()
                .filter(|key| !bills.contains_key(key))
                .count();
        failures.push(format!(
            "{mismatched} bill lines disagree with their home ledger"
        ));
    }

    let (mut due_records, mut unbilled_due) = (0, 0);
    for (device, &n) in billing.produced_at_checkpoint.iter().flatten() {
        let billed = billing.billed_due.get(device).copied().unwrap_or(0);
        due_records += n;
        unbilled_due += n.saturating_sub(billed);
        if billed > n {
            failures.push(format!(
                "device {device} billed {billed} of {n} due records"
            ));
        }
    }
    if due_records == 0 {
        failures.push("no records were due for billing".to_string());
    }

    // Memberships at the horizon.
    let memberships: u64 = world
        .network_addresses()
        .iter()
        .filter_map(|&addr| world.aggregator(addr))
        .map(|a| a.registry().len() as u64)
        .sum();
    if require_membership {
        let unregistered = world
            .devices()
            .filter(|(id, device)| {
                !device.registration().is_some_and(|(addr, _, _)| {
                    world
                        .aggregator(addr)
                        .is_some_and(|a| a.registry().is_member(*id))
                })
            })
            .count();
        if unregistered > 0 {
            failures.push(format!(
                "{unregistered} devices hold no membership at the horizon"
            ));
        }
    }

    let (mut windows_verified, mut windows_anomalous) = (0, 0);
    for addr in world.network_addresses() {
        if let Some(aggregator) = world.aggregator(addr) {
            windows_verified += aggregator.verdicts().len() as u64;
            windows_anomalous +=
                aggregator.verdicts().iter().filter(|v| v.anomalous).count() as u64;
        }
    }
    let (mut settled_windows, mut settled_out_of_band, mut gap_sum) = (0, 0, 0.0);
    for window in report.accuracy.iter().flat_map(|a| a.settled_windows()) {
        let gap = window.overhead_percent();
        settled_windows += 1;
        gap_sum += gap;
        if !(GAP_BAND_PERCENT.0..=GAP_BAND_PERCENT.1).contains(&gap) {
            settled_out_of_band += 1;
        }
    }

    let latencies: Vec<f64> = scan
        .latencies_us
        .iter()
        .map(|&us| f64::from(us) / 1e6)
        .collect();
    let device_ticks = world
        .devices()
        .map(|(_, d)| d.measured_series().len() as u64)
        .sum();

    let mut fidelity = Fidelity {
        due_records,
        unbilled_due,
        windows_verified,
        windows_anomalous,
        settled_windows,
        settled_out_of_band,
        mean_gap_percent: if settled_windows == 0 {
            0.0
        } else {
            gap_sum / settled_windows as f64
        },
        seal_latency_p50_s: percentile(&latencies, 0.5),
        seal_latency_p99_s: percentile(&latencies, 0.99),
        sealed_entries: latencies.len() as u64,
        thandshake_p50_s: percentile(&scan.handshakes_s, 0.5),
        handshakes: scan.handshakes_s.len() as u64,
        memberships,
        device_ticks,
        failures,
    };
    for (name, value) in [
        ("seal_latency_p50_s", fidelity.seal_latency_p50_s),
        ("seal_latency_p99_s", fidelity.seal_latency_p99_s),
        ("thandshake_p50_s", fidelity.thandshake_p50_s),
    ] {
        if value.is_none() {
            fidelity
                .failures
                .push(format!("{name}: too few samples for the percentile"));
        }
    }
    fidelity
}

/// SHA-256 of the Debug rendering of the report's deterministic fields:
/// world metrics, Fig. 5 windows, handshake statistics, ledger summaries
/// and bills (telemetry is left out: its profile is host time). Debug
/// prints floats in shortest round-trip form, so equal digests mean
/// bit-identical values.
pub fn report_digest(report: &RunReport) -> Digest {
    let rendering = format!(
        "{:?}{:?}{:?}{:?}{:?}",
        report.metrics, report.accuracy, report.handshakes, report.ledgers, report.bills
    );
    Sha256::digest(rendering.as_bytes())
}
