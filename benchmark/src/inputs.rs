//! The seven workloads and the inputs each replays, all generated from the
//! seed: the fingerprint library, the synthetic stream or the simulated
//! incident scenarios, and the reference output every pass is checked
//! against.

use crate::passes::{self, PassOutput};
use crate::score::{self, Expected};
use crate::trace::Tracer;
use gretel_core::{Diagnosis, FingerprintLibrary, GretelConfig, ServiceGraph};
use gretel_model::{Catalog, Category, Message, NodeId, OperationSpec, TempestSuite};
use gretel_sim::scenario::{
    failed_image_upload, linuxbridge_crash, mysql_outage, neutron_api_latency,
    no_compute_available, ntp_failure, rabbitmq_outage,
};
use gretel_sim::{cascade_suite, Deployment, Execution, StreamConfig, SyntheticStream};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A named workload. The names are the benchmark's vocabulary: results,
/// `BENCHMARK.json` and later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Low fault rate, inline analyzer on one thread: ingest-bound.
    Steady,
    /// One fault per 100 messages, inline: detect/match-bound.
    Storm,
    /// The `steady` stream through the threaded service: transport-bound.
    Wire,
    /// The `steady` stream through two tenant shards.
    Tenants,
    /// The threaded service checkpointing to a fresh `FileStore`.
    Durable,
    /// Kill and recover three times, then finish: the store's read side.
    Restart,
    /// Simulated incidents with telemetry, RCA and cascade attribution.
    Incident,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 7] = [
        Workload::Steady,
        Workload::Storm,
        Workload::Wire,
        Workload::Tenants,
        Workload::Durable,
        Workload::Restart,
        Workload::Incident,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Storm => "storm",
            Workload::Wire => "wire",
            Workload::Tenants => "tenants",
            Workload::Durable => "durable",
            Workload::Restart => "restart",
            Workload::Incident => "incident",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a pass is the inline analyzer on the calling thread, which
    /// a traced run drives layer by layer.
    pub fn is_inline(self) -> bool {
        matches!(
            self,
            Workload::Steady | Workload::Storm | Workload::Incident
        )
    }

    /// Whether RPC-error diagnoses take part in the reference check.
    ///
    /// An RPC error never arms a snapshot (paper §5.3.1); it is diagnosed
    /// only when a REST error's window happens to cover it. After the last
    /// snapshot of a finite replay freezes, RPC errors are reported only if
    /// one more REST error follows, and a shard sees fewer REST errors than
    /// the whole stream: on about one seed in five a shard drops trailing
    /// RPC-error diagnoses that the inline reference still has. That is the
    /// end of a finite replay, not a fault of the run, so `tenants` checks
    /// every other diagnosis and leaves these out on both sides.
    pub fn checks_rpc_diagnoses(self) -> bool {
        self != Workload::Tenants
    }

    /// Untimed passes before the timed ones. The store-bound workloads take
    /// seconds per pass and open a fresh store each time, so one is enough.
    pub fn warmup_passes(self) -> usize {
        match self {
            Workload::Durable | Workload::Restart => 1,
            _ => 2,
        }
    }
}

/// How large the inputs are. Message counts are part of each workload's
/// definition (`durable` cost is superlinear in stream length), so the full
/// sizes never change; `check` is a smoke size for `run --check`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Messages of the synthetic stream.
    pub messages: usize,
    /// One injected fault per this many messages (`storm`: always 100).
    pub fault_every: usize,
    /// Leading messages of it that `durable` replays.
    pub durable_messages: usize,
    /// Leading messages of it that `restart` replays.
    pub restart_messages: usize,
    /// Merged messages after which each of `restart`'s three kills fires.
    pub kill_point: u64,
    /// Suite tests per category, `None` for the full 1200-test suite.
    pub tests_per_category: Option<usize>,
    /// Healthy background operations per `incident` scenario.
    pub background: usize,
    /// Concurrent VM creations of the Neutron latency scenario.
    pub concurrency: usize,
}

impl Sizes {
    /// The sizes every reported number refers to.
    pub const FULL: Sizes = Sizes {
        messages: 400_000,
        fault_every: 2_000,
        durable_messages: 60_000,
        restart_messages: 40_000,
        kill_point: 10_000,
        tests_per_category: None,
        background: 100,
        concurrency: 100,
    };

    /// Smoke sizes: every path still runs, in well under a second each.
    pub const CHECK: Sizes = Sizes {
        messages: 20_000,
        fault_every: 200,
        durable_messages: 3_000,
        restart_messages: 2_000,
        kill_point: 500,
        tests_per_category: Some(8),
        background: 6,
        concurrency: 40,
    };
}

/// One simulated incident: its traffic, telemetry source and expectation.
pub struct Incident {
    /// Deployment it ran on.
    pub deployment: Deployment,
    /// The library learned from the scenario's own operation mix, with those
    /// specs; `None` uses the suite's (the §7.2 case studies).
    pub own: Option<(FingerprintLibrary, Vec<OperationSpec>)>,
    /// The simulated run.
    pub exec: Execution,
    /// Window configuration derived from the run's packet rate.
    pub gcfg: GretelConfig,
    /// What a correct analysis reports.
    pub expected: Expected,
}

/// What the passes of a workload replay.
pub enum Stream {
    /// A `SyntheticStream` and the window configuration it is analysed with.
    Synthetic {
        /// The messages, in capture order.
        traffic: Vec<Message>,
        /// Analyzer configuration.
        gcfg: GretelConfig,
    },
    /// The `incident` scenarios.
    Incidents(Vec<Incident>),
}

/// The reference output, computed in set-up by the inline analyzer.
pub struct Reference {
    /// Sorted per-diagnosis keys ([`score::diagnosis_keys`]).
    pub keys: Vec<Vec<u8>>,
    /// FNV-1a digest of the keys.
    pub digest: u64,
    /// Injected faults diagnosed with a plausible operation or cause.
    pub hit_share: f64,
    /// Mean θ of the diagnoses.
    pub theta_mean: f64,
    /// The diagnoses themselves (input of the merge micro-measurement).
    pub diagnoses: Vec<Diagnosis>,
    /// Traffic graph the reference analyzer mined.
    pub graph: ServiceGraph,
}

/// Everything a workload's passes need.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Sizes they were generated at.
    pub sizes: Sizes,
    /// The OpenStack API catalog.
    pub catalog: Arc<Catalog>,
    /// The generated Tempest suite.
    pub suite: TempestSuite,
    /// Fingerprints of the whole suite.
    pub library: FingerprintLibrary,
    /// Capture agents' nodes.
    pub nodes: Vec<NodeId>,
    /// What passes replay.
    pub stream: Stream,
    /// Messages one pass processes.
    pub messages: usize,
    /// Messages generated (`durable` and `restart` replay a prefix).
    pub generated_messages: usize,
    /// Time spent generating the stream (or simulating the incidents), ns.
    pub stream_gen_ns: u64,
}

const NODE_SPREAD: u8 = 7;

fn suite(catalog: &Arc<Catalog>, seed: u64, sizes: &Sizes) -> TempestSuite {
    match sizes.tests_per_category {
        None => TempestSuite::generate(catalog.clone(), seed),
        Some(n) => {
            let counts: Vec<(Category, usize)> = Category::ALL.iter().map(|&c| (c, n)).collect();
            TempestSuite::generate_with_counts(catalog.clone(), seed, &counts)
        }
    }
}

/// Window size that keeps sharded output byte-identical to inline
/// (DESIGN.md §15): four times the widest operation span of the stream.
fn soak_alpha(traffic: &[Message], fp_max: usize) -> usize {
    let mut spans: HashMap<u64, (usize, usize)> = HashMap::new();
    for (i, m) in traffic.iter().enumerate() {
        if let Some(op) = m.truth_op {
            spans.entry(op.0).or_insert((i, i)).1 = i;
        }
    }
    let widest = spans
        .values()
        .map(|(first, last)| last - first + 1)
        .max()
        .unwrap_or(1);
    (4 * widest).max(2 * fp_max)
}

fn synthetic(
    workload: Workload,
    catalog: &Arc<Catalog>,
    suite: &TempestSuite,
    fp_max: usize,
    sizes: &Sizes,
) -> Stream {
    let specs: Vec<OperationSpec> = suite.specs().iter().step_by(13).cloned().collect();
    let storm = workload == Workload::Storm;
    let cfg = StreamConfig {
        total_messages: sizes.messages,
        fault_every: if storm { 100 } else { sizes.fault_every },
        pps: 50_000,
        concurrent_ops: 64,
        projects: 32,
        correlation_ids: !storm,
        abort_on_fault: true,
        node_spread: NODE_SPREAD,
    };
    let mut traffic: Vec<Message> = SyntheticStream::new(catalog.clone(), &specs, cfg).collect();
    let gcfg = if storm {
        GretelConfig::auto(fp_max, cfg.pps as f64, 1.0)
    } else {
        // α comes from the whole stream even when only a prefix is replayed.
        GretelConfig {
            alpha: soak_alpha(&traffic, fp_max),
            ..GretelConfig::default()
        }
    };
    match workload {
        Workload::Durable => traffic.truncate(sizes.durable_messages),
        Workload::Restart => traffic.truncate(sizes.restart_messages),
        _ => {}
    }
    Stream::Synthetic { traffic, gcfg }
}

fn incidents(
    catalog: &Arc<Catalog>,
    library: &FingerprintLibrary,
    seed: u64,
    sizes: &Sizes,
) -> Vec<Incident> {
    let window = |exec: &Execution, fp_max: usize| {
        let secs = (exec.duration.max(1) as f64 / 1e6).max(1e-6);
        GretelConfig::auto(fp_max, exec.messages.len() as f64 / secs, 2.0)
    };
    let bg = sizes.background;
    let case_studies = [
        failed_image_upload(catalog, seed, bg),
        neutron_api_latency(catalog, seed, sizes.concurrency),
        linuxbridge_crash(catalog, seed, bg),
        ntp_failure(catalog, seed, bg),
        no_compute_available(catalog, seed, bg),
        mysql_outage(catalog, seed, bg),
        rabbitmq_outage(catalog, seed, bg),
    ];
    let mut out: Vec<Incident> = case_studies
        .into_iter()
        .map(|sc| {
            let exec = sc.run(catalog.clone());
            Incident {
                gcfg: window(&exec, library.fp_max()),
                deployment: sc.deployment,
                own: None,
                exec,
                expected: Expected::Cause(sc.expected_cause),
            }
        })
        .collect();
    for sc in cascade_suite(catalog, seed) {
        // Cascades exercise RPC-only agent operations the Tempest motifs do
        // not cover, so each is characterised on its own operation mix.
        let (own, _) = FingerprintLibrary::characterize(
            catalog.clone(),
            &sc.specs,
            &sc.deployment,
            2,
            seed ^ 0xF1F1,
        );
        let exec = sc.run(catalog.clone());
        out.push(Incident {
            gcfg: window(&exec, own.fp_max()),
            expected: Expected::Roots(sc.truth.root_services()),
            deployment: sc.deployment,
            own: Some((own, sc.specs)),
            exec,
        });
    }
    out
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn build(workload: Workload, seed: u64, sizes: Sizes) -> Inputs {
        let catalog = Catalog::openstack();
        let suite = suite(&catalog, seed, &sizes);
        let deployment = Deployment::standard();
        let (library, _) = FingerprintLibrary::characterize(
            catalog.clone(),
            suite.specs(),
            &deployment,
            2,
            seed ^ 0xF1F1,
        );
        let started = Instant::now();
        let stream = if workload == Workload::Incident {
            Stream::Incidents(incidents(&catalog, &library, seed, &sizes))
        } else {
            synthetic(workload, &catalog, &suite, library.fp_max(), &sizes)
        };
        let stream_gen_ns = started.elapsed().as_nanos() as u64;
        let (messages, generated_messages) = match &stream {
            Stream::Synthetic { traffic, .. } => (traffic.len(), sizes.messages),
            Stream::Incidents(list) => {
                let n = list.iter().map(|i| i.exec.messages.len()).sum();
                (n, n)
            }
        };
        Inputs {
            workload,
            sizes,
            catalog,
            suite,
            library,
            nodes: (0..NODE_SPREAD).map(NodeId).collect(),
            stream,
            messages,
            generated_messages,
            stream_gen_ns,
        }
    }

    /// What the per-layer micro-measurements run over: the synthetic
    /// stream, or the largest incident's capture, with the library and
    /// window configuration it is analysed under.
    pub fn sample(&self) -> Sample<'_> {
        match &self.stream {
            Stream::Synthetic { traffic, gcfg } => Sample {
                library: &self.library,
                gcfg: *gcfg,
                messages: traffic,
            },
            Stream::Incidents(list) => {
                let largest = list
                    .iter()
                    .max_by_key(|i| i.exec.messages.len())
                    .expect("the incident suite is never empty");
                Sample {
                    library: largest
                        .own
                        .as_ref()
                        .map_or(&self.library, |(library, _)| library),
                    gcfg: largest.gcfg,
                    messages: &largest.exec.messages,
                }
            }
        }
    }
}

/// See [`Inputs::sample`].
pub struct Sample<'a> {
    /// Library the messages are analysed with.
    pub library: &'a FingerprintLibrary,
    /// Window configuration they are analysed with.
    pub gcfg: GretelConfig,
    /// The messages, in capture order.
    pub messages: &'a [Message],
}

impl Reference {
    /// The inline analyzer's output on the workload's stream, scored
    /// against ground truth.
    pub fn compute(inputs: &Inputs) -> Reference {
        let PassOutput { groups, graph, .. } = passes::run_inline(inputs, &mut Tracer::new(false));
        let keys = score::diagnosis_keys(&groups, inputs.workload.checks_rpc_diagnoses());
        assert!(
            !keys.is_empty(),
            "{}: the reference run diagnosed nothing",
            inputs.workload.name()
        );
        let hit_share = match &inputs.stream {
            Stream::Synthetic { traffic, .. } => {
                score::synthetic_hit_share(traffic, inputs.suite.specs(), &groups[0])
            }
            Stream::Incidents(list) => {
                let met = list
                    .iter()
                    .zip(&groups)
                    .filter(|(i, d)| i.expected.is_met(d))
                    .count();
                met as f64 / list.len() as f64
            }
        };
        Reference {
            digest: score::digest(&keys),
            keys,
            hit_share,
            theta_mean: score::theta_mean(&groups),
            diagnoses: groups.into_iter().flatten().collect(),
            graph,
        }
    }
}
