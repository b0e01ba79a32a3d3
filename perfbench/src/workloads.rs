//! The three benchmark workloads, each a pure function of the seed.
//!
//! * `fleet` — 100 networks × 8 charging devices, five meter protocols,
//!   bounded retention: per-network and per-device lookups, broker fan-out
//!   and codec encode/parse dominate.
//! * `long` — 4 networks × 8 devices for 20 simulated minutes, keep-all
//!   retention: block sealing, the device tick, the report's chain audit
//!   and memory growth over the horizon dominate.
//! * `roam` — 40 networks × 6 devices, half of each network touring a
//!   foreign network and back: temporary membership, backhaul membership
//!   checks and roaming records billed at home.

use rtem::prelude::*;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small sites, five meter protocols, bounded retention.
    Fleet,
    /// Few sites over a long horizon, keep-all retention.
    Long,
    /// Sites whose devices tour foreign networks and return home.
    Roam,
}

/// How one workload is driven and measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Simulated time advanced by one timed `RunHandle::step` call.
    pub step: SimDuration,
    /// Host seconds one repeat of the run takes on the reference host
    /// (2 shared vCPUs); sets how many repeats fit a run of `--seconds`.
    pub nominal_repeat_s: f64,
    /// Steps between two slices of the host-speed gauge.
    pub gauge_every: usize,
}

/// Devices per network that make a tour in `roam`.
pub const ROAMERS_PER_NETWORK: u32 = 3;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Long, Workload::Roam];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Long => "long",
            Workload::Roam => "roam",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every device must hold a membership at the horizon. Not on
    /// `roam`, whose registries the tours churn.
    pub fn requires_membership(self) -> bool {
        self != Workload::Roam
    }

    /// Step size and per-repeat cost of the workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Fleet => Shape {
                step: SimDuration::from_millis(250),
                nominal_repeat_s: 3.0,
                gauge_every: 1,
            },
            Workload::Long => Shape {
                step: SimDuration::from_secs(1),
                nominal_repeat_s: 3.0,
                gauge_every: 4,
            },
            Workload::Roam => Shape {
                step: SimDuration::from_millis(500),
                nominal_repeat_s: 4.1,
                gauge_every: 1,
            },
        }
    }

    /// The scenario the workload runs for `seed`. Every generated schedule
    /// derives from the seed; the same seed gives the same spec.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        match self {
            Workload::Fleet => ScenarioSpec::paper_testbed(seed)
                .with_networks(100)
                .with_devices_per_network(8)
                .with_load(DeviceLoad::EspCharging)
                .with_meter_kinds(MeterKind::ALL.to_vec())
                .with_bounded_memory(2)
                .with_horizon(SimDuration::from_secs(30)),
            Workload::Long => ScenarioSpec::paper_testbed(seed)
                .with_networks(4)
                .with_devices_per_network(8)
                .with_load(DeviceLoad::EspCharging)
                .with_horizon(SimDuration::from_secs(1200)),
            Workload::Roam => roam_spec(seed),
        }
    }
}

/// Networks and horizon of `roam`.
const ROAM_NETWORKS: u32 = 40;
const ROAM_HORIZON_S: u64 = 180;

/// `roam`: every network's first [`ROAMERS_PER_NETWORK`] devices unplug,
/// plug into a foreign network, then return home. Roamer `j` of every
/// network goes the same seeded number of networks along, so each network
/// hosts exactly one visitor per roamer slot and stays within its TDMA
/// frame (6 homed + 3 visitors of 10 slots). Departure, transit and dwell
/// times are drawn from the seed per device; every tour is back home at
/// least 40 s before the horizon so its records can settle.
fn roam_spec(seed: u64) -> ScenarioSpec {
    let mut rng = SplitMix64(seed ^ 0x726f_616d);
    let mut offsets: Vec<u32> = Vec::new();
    while offsets.len() < ROAMERS_PER_NETWORK as usize {
        let offset = 1 + rng.below(u64::from(ROAM_NETWORKS) - 1) as u32;
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    let mut spec = ScenarioSpec::paper_testbed(seed)
        .with_networks(ROAM_NETWORKS)
        .with_devices_per_network(6)
        .with_load(DeviceLoad::EspCharging)
        .with_horizon(SimDuration::from_secs(ROAM_HORIZON_S));
    for network in 0..ROAM_NETWORKS {
        for j in 0..ROAMERS_PER_NETWORK {
            let device = ScenarioSpec::device_id(network, j);
            let foreign = (network + offsets[j as usize]) % ROAM_NETWORKS;
            let leave_ms = 20_000 + rng.below(30_000);
            let arrive_ms = leave_ms + 2_000 + rng.below(8_000);
            let depart_ms = arrive_ms + 40_000 + rng.below(30_000);
            let home_ms = depart_ms + 2_000 + rng.below(8_000);
            spec = spec
                .unplug_at(SimTime::from_millis(leave_ms), device)
                .plug_in_at(
                    SimTime::from_millis(arrive_ms),
                    device,
                    ScenarioSpec::network_addr(foreign),
                )
                .unplug_at(SimTime::from_millis(depart_ms), device)
                .plug_in_at(
                    SimTime::from_millis(home_ms),
                    device,
                    ScenarioSpec::network_addr(network),
                );
        }
    }
    spec
}

/// The benchmark's own generator (SplitMix64), so workload inputs do not
/// move when the simulator's RNG changes.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_validates_for_arbitrary_seeds() {
        let mut seeds = SplitMix64(7);
        for workload in Workload::ALL {
            for seed in [0, 1, u64::MAX]
                .into_iter()
                .chain((0..20).map(|_| seeds.next()))
            {
                assert_eq!(
                    workload.spec(seed).validate(),
                    Ok(()),
                    "{} seed {seed}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn specs_are_pure_functions_of_the_seed() {
        for workload in Workload::ALL {
            assert_eq!(workload.spec(11), workload.spec(11));
        }
        assert_ne!(
            Workload::Roam.spec(11).script,
            Workload::Roam.spec(12).script
        );
    }

    #[test]
    fn roam_tours_leave_and_return_home_before_the_horizon() {
        let spec = Workload::Roam.spec(3);
        assert_eq!(
            spec.script.len() as u32,
            ROAM_NETWORKS * ROAMERS_PER_NETWORK * 4
        );
        for event in &spec.script {
            assert!(event.at() <= SimTime::from_secs(ROAM_HORIZON_S - 40));
            if let ScriptEvent::PlugIn {
                device, network, ..
            } = *event
            {
                assert!(spec.device_ids().contains(&device));
                assert!(spec.network_addrs().contains(&network));
            }
        }
    }

    #[test]
    fn every_network_hosts_one_visitor_per_roamer_slot() {
        for seed in [0, 5, 99] {
            let spec = Workload::Roam.spec(seed);
            let home = |device: DeviceId| {
                (0..ROAM_NETWORKS)
                    .find(|&n| {
                        (0..ROAMERS_PER_NETWORK).any(|j| ScenarioSpec::device_id(n, j) == device)
                    })
                    .map(ScenarioSpec::network_addr)
            };
            let mut visitors = std::collections::BTreeMap::new();
            for event in &spec.script {
                if let ScriptEvent::PlugIn {
                    device, network, ..
                } = *event
                {
                    if home(device) != Some(network) {
                        *visitors.entry(network).or_insert(0) += 1;
                    }
                }
            }
            assert_eq!(visitors.len() as u32, ROAM_NETWORKS, "seed {seed}");
            assert!(visitors.values().all(|&n| n == ROAMERS_PER_NETWORK));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
