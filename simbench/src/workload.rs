//! The benchmark's workloads and the deterministic job list each seed
//! expands to.

use tla_rng::SmallRng;
use tla_sim::{PolicySpec, SimConfig};
use tla_workloads::{all_two_core_mixes, table2_mixes, SpecApp};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-core mixes of LLC-thrashing apps under the inclusive-family
    /// policies: the inclusion layer (back-invalidation, QBS queries, TLH
    /// hints) does most of the work.
    LlcThrash,
    /// 4-core mixes of core-cache-fitting apps: the LLC sits almost idle,
    /// so time goes to trace generation, the L1 path and the core model.
    CoreBound,
    /// The `compare --warm-start --json` flow over 2-core mixes: warm
    /// once, resume under all seven policies, replay the MIN oracle.
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LlcThrash,
        Workload::CoreBound,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LlcThrash => "llc-thrash",
            Workload::CoreBound => "core-bound",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cores per mix.
    pub fn cores(self) -> usize {
        match self {
            Workload::LlcThrash => 8,
            Workload::CoreBound => 4,
            Workload::PaperSweep => 2,
        }
    }

    /// The apps mixes are drawn from (`None`: Table II, then all pairs).
    fn pool(self) -> Option<[SpecApp; 5]> {
        use SpecApp::*;
        match self {
            Workload::LlcThrash => Some([Mcf, Libquantum, Sphinx3, Wrf, Gobmk]),
            Workload::CoreBound => Some([Sjeng, H264ref, Perlbench, Povray, DealII]),
            Workload::PaperSweep => None,
        }
    }

    /// The policies each mix runs under, with their metric labels.
    pub fn policies(self) -> Vec<(&'static str, PolicySpec)> {
        let all = compare_policies();
        let keep: &[&str] = match self {
            Workload::LlcThrash => &["baseline", "tlh-l1", "eci", "qbs"],
            Workload::CoreBound => &["baseline", "eci", "qbs"],
            Workload::PaperSweep => return all,
        };
        all.into_iter().filter(|(l, _)| keep.contains(l)).collect()
    }
}

/// The seven policies of `tla-cli compare`, in its order.
pub fn compare_policies() -> Vec<(&'static str, PolicySpec)> {
    vec![
        ("baseline", PolicySpec::baseline()),
        ("tlh-l1", PolicySpec::tlh_l1()),
        ("tlh-l2", PolicySpec::tlh_l2()),
        ("eci", PolicySpec::eci()),
        ("qbs", PolicySpec::qbs()),
        ("non-inclusive", PolicySpec::non_inclusive()),
        ("exclusive", PolicySpec::exclusive()),
    ]
}

/// Run length of one job and how many distinct mixes a seed draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Warm-up instructions per core (statistics discarded).
    pub warmup: u64,
    /// Measured instructions per core.
    pub quota: u64,
    /// Distinct mixes in the job list.
    pub mixes: usize,
    /// Telemetry window of the paper-sweep reports, in instructions.
    pub window: u64,
}

impl Sizing {
    /// The measured configuration. The warm-ups fill the 256 KB LLC where
    /// the mix can fill it at all: LLC evictions start by 10k
    /// instructions per core in llc-thrash and by 100k in paper-sweep;
    /// core-bound mixes never evict from the LLC, and their warm-up fills
    /// the core caches.
    pub fn standard(w: Workload) -> Sizing {
        match w {
            Workload::LlcThrash => Sizing {
                warmup: 15_000,
                quota: 5_000,
                mixes: 25,
                window: 20_000,
            },
            Workload::CoreBound => Sizing {
                warmup: 25_000,
                quota: 15_000,
                mixes: 34,
                window: 20_000,
            },
            Workload::PaperSweep => Sizing {
                warmup: 150_000,
                quota: 50_000,
                mixes: 13,
                window: 20_000,
            },
        }
    }

    /// The standard job list at a few thousand instructions per core,
    /// for smoke tests.
    pub fn tiny(w: Workload) -> Sizing {
        Sizing {
            warmup: 2_000,
            quota: 2_000,
            window: 1_000,
            ..Sizing::standard(w)
        }
    }
}

/// What one job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// The mix run (or resumed, in paper-sweep) under policy `i` of
    /// [`Plan::policies`].
    Policy(usize),
    /// The MIN-oracle replay of the mix (paper-sweep only).
    Oracle,
}

/// One job: a cell of one mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub mix: usize,
    pub cell: Cell,
}

/// Everything a seed expands to: the configuration, the mixes and the
/// job list. The same workload, seed and sizing always give the same plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub sizing: Sizing,
    pub cfg: SimConfig,
    pub mixes: Vec<Vec<SpecApp>>,
    pub policies: Vec<(&'static str, PolicySpec)>,
    /// Per mix in order, its policy cells (paper-sweep: then its oracle
    /// cell).
    pub jobs: Vec<Job>,
}

/// SplitMix64 finalizer: spreads nearby benchmark seeds apart.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, sizing: Sizing) -> Plan {
        let cfg = SimConfig::scaled_down()
            .warmup(sizing.warmup)
            .instructions(sizing.quota)
            .seed(mix64(seed))
            .jobs(1)
            .shard_jobs(1);
        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ 0x5117_b3c4));
        let mixes: Vec<Vec<SpecApp>> = match workload.pool() {
            // Every pool app appears in every mix, the rest of the cores
            // draw with replacement: mixes differ by seed, but none
            // leaves out a whole app class, which keeps job cost steady.
            Some(pool) => (0..sizing.mixes)
                .map(|_| {
                    let cores = workload.cores();
                    let mut apps: Vec<SpecApp> = if cores >= pool.len() {
                        let mut apps = pool.to_vec();
                        apps.extend(
                            (pool.len()..cores).map(|_| pool[rng.gen_range(0..pool.len())]),
                        );
                        apps
                    } else {
                        let mut apps = pool.to_vec();
                        apps.remove(rng.gen_range(0..pool.len()));
                        apps.truncate(cores);
                        apps
                    };
                    shuffle(&mut rng, &mut apps);
                    apps
                })
                .collect(),
            // The Table II mixes, then further pairs drawn without
            // replacement from the other 2-core mixes.
            None => {
                let table2: Vec<Vec<SpecApp>> =
                    table2_mixes().into_iter().map(|m| m.apps).collect();
                let mut rest: Vec<Vec<SpecApp>> = all_two_core_mixes()
                    .into_iter()
                    .map(|m| m.apps)
                    .filter(|apps| {
                        !table2
                            .iter()
                            .any(|t| t == apps || (t[0] == apps[1] && t[1] == apps[0]))
                    })
                    .collect();
                shuffle(&mut rng, &mut rest);
                let extra = sizing.mixes.saturating_sub(table2.len());
                table2
                    .into_iter()
                    .take(sizing.mixes)
                    .chain(rest.into_iter().take(extra))
                    .collect()
            }
        };
        let policies = workload.policies();
        let oracle = (workload == Workload::PaperSweep).then_some(Cell::Oracle);
        let jobs = (0..mixes.len())
            .flat_map(|mix| {
                (0..policies.len())
                    .map(Cell::Policy)
                    .chain(oracle)
                    .map(move |cell| Job { mix, cell })
            })
            .collect();
        Plan {
            workload,
            seed,
            sizing,
            cfg,
            mixes,
            policies,
            jobs,
        }
    }

    /// Cells per mix in paper-sweep (seven policies and the oracle).
    pub fn cells_per_mix(&self) -> usize {
        self.policies.len() + 1
    }

    /// A short label of job `i`, e.g. `mcf+lib+…/qbs`.
    pub fn job_label(&self, i: usize) -> String {
        let job = self.jobs[i];
        let mix: Vec<&str> = self.mixes[job.mix].iter().map(|a| a.short_name()).collect();
        let cell = match job.cell {
            Cell::Policy(p) => self.policies[p].0,
            Cell::Oracle => "oracle",
        };
        format!("{}/{}", mix.join("+"), cell)
    }

    /// Simulated instructions of one timed unit. llc-thrash and
    /// core-bound time each job, a straight-through run: every core's
    /// warm-up and measured quota. paper-sweep times each mix: one warm-up
    /// shared by seven resumed measured phases (oracle cells simulate no
    /// instructions).
    pub fn unit_instructions(&self) -> u64 {
        let cores = self.workload.cores() as u64;
        let measured = match self.workload {
            Workload::PaperSweep => self.policies.len() as u64 * self.sizing.quota,
            _ => self.sizing.quota,
        };
        cores * (self.sizing.warmup + measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = Plan::new(w, 42, Sizing::standard(w));
            let b = Plan::new(w, 42, Sizing::standard(w));
            assert_eq!(a.mixes, b.mixes, "{}", w.name());
            assert_eq!(a.jobs, b.jobs, "{}", w.name());
            assert_eq!(a.cfg, b.cfg, "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_mixes() {
        for w in Workload::ALL {
            let a = Plan::new(w, 1, Sizing::standard(w));
            let b = Plan::new(w, 2, Sizing::standard(w));
            assert_ne!(a.mixes, b.mixes, "{}", w.name());
            assert_ne!(a.cfg.seed_value(), b.cfg.seed_value(), "{}", w.name());
        }
    }

    #[test]
    fn mixes_have_the_stated_shape() {
        let p = Plan::new(
            Workload::LlcThrash,
            3,
            Sizing::standard(Workload::LlcThrash),
        );
        assert_eq!(p.jobs.len(), 25 * 4);
        for mix in &p.mixes {
            assert_eq!(mix.len(), 8);
            for app in Workload::LlcThrash.pool().expect("pool") {
                assert!(mix.contains(&app), "{mix:?} misses {app:?}");
            }
        }
        let p = Plan::new(
            Workload::CoreBound,
            3,
            Sizing::standard(Workload::CoreBound),
        );
        assert_eq!(p.jobs.len(), 34 * 3);
        for mix in &p.mixes {
            assert_eq!(mix.len(), 4);
            let mut sorted = mix.clone();
            sorted.sort_by_key(|a| a.short_name());
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "{mix:?} repeats an app");
        }
        let p = Plan::new(
            Workload::PaperSweep,
            3,
            Sizing::standard(Workload::PaperSweep),
        );
        let table2: Vec<Vec<SpecApp>> = table2_mixes().into_iter().map(|m| m.apps).collect();
        assert_eq!(p.mixes[..12], table2[..]);
        assert_eq!(p.mixes.len(), 13);
        assert_eq!(p.jobs.len(), 13 * 8);
        let mut all = p.mixes.clone();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 13, "paper-sweep repeats a mix");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
