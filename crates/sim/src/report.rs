//! Human-readable views of an execution.
//!
//! Debugging a fault-localization system needs ground-truth visibility:
//! what actually happened on the wire, per operation instance. These
//! renderers turn an [`Execution`] into the message ladders and summaries
//! the examples and the CLI print.

use crate::executor::Execution;
use gretel_model::{Catalog, Direction, OpInstanceId};

/// One-line-per-message ladder for a single operation instance.
///
/// ```text
///     0.000s  horizon      -> nova         POST nova /v2.1/servers
///    +0.031s  nova         -> nova-compute RPC(cast) nova-compute build_and_run_instance
/// ```
pub fn instance_timeline(exec: &Execution, catalog: &Catalog, inst: OpInstanceId) -> String {
    let mut out = String::new();
    let mut t0 = None;
    for m in exec.messages.iter().filter(|m| m.truth_op == Some(inst)) {
        let t0 = *t0.get_or_insert(m.ts_us);
        let arrow = match m.direction {
            Direction::Request => "->",
            Direction::Response => "<-",
        };
        let marker = if m.is_rest_error() || m.is_rpc_error() {
            " !!"
        } else {
            ""
        };
        let noise = if m.truth_noise { " (repeat)" } else { "" };
        out.push_str(&format!(
            "  +{:>8.3}s  {:<12} {arrow} {:<12} {}{marker}{noise}\n",
            (m.ts_us - t0) as f64 / 1e6,
            m.src_service.name(),
            m.dst_service.name(),
            catalog.get(m.api).label(),
        ));
    }
    out
}

/// Per-instance summary table: name, duration, messages, outcome.
pub fn summary(exec: &Execution) -> String {
    let mut out = String::from("instance  duration   messages  outcome\n");
    for o in &exec.outcomes {
        let msgs = exec
            .messages
            .iter()
            .filter(|m| m.truth_op == Some(o.inst))
            .count();
        out.push_str(&format!(
            "{:>8}  {:>8.2}s  {:>8}  {} ({})\n",
            o.inst.0,
            (o.finished_at - o.started_at) as f64 / 1e6,
            msgs,
            if o.aborted { "ABORTED" } else { "ok" },
            o.spec_name,
        ));
    }
    let noise = exec.messages.iter().filter(|m| m.truth_noise).count();
    out.push_str(&format!(
        "total: {} messages ({} noise), {} resource samples, {} watcher samples\n",
        exec.messages.len(),
        noise,
        exec.resources.len(),
        exec.watchers.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::executor::{NoiseConfig, RunConfig, Runner};
    use crate::faults::{ApiFault, FaultPlan, FaultScope, InjectedError};
    use gretel_model::{Catalog, HttpMethod, OpSpecId, Service, Workflows};

    #[test]
    fn timeline_shows_every_instance_message_in_order() {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let spec = wf.vm_create_spec(OpSpecId(0));
        let exec = Runner::new(
            cat.clone(),
            &dep,
            &FaultPlan::none(),
            RunConfig {
                seed: 1,
                noise: NoiseConfig::off(),
                ..RunConfig::default()
            },
        )
        .run(&[&spec]);
        let ladder = instance_timeline(&exec, &cat, gretel_model::OpInstanceId(0));
        assert!(ladder.contains("POST nova /v2.1/servers"));
        assert!(ladder.contains("build_and_run_instance"));
        assert!(ladder.starts_with("  +   0.000s"));
        let lines = ladder.lines().count();
        assert_eq!(
            lines,
            exec.messages
                .iter()
                .filter(|m| m.truth_op.is_some())
                .count()
        );
    }

    #[test]
    fn errors_are_marked_in_the_ladder() {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let spec = wf.image_upload_spec(OpSpecId(0));
        let put = cat.rest_expect(Service::Glance, HttpMethod::Put, "/v2/images/{id}/file");
        let plan = FaultPlan::none().with_api_fault(ApiFault {
            api: put,
            scope: FaultScope::AllInstances,
            occurrence: 0,
            error: InjectedError::RestStatus {
                status: 413,
                reason: None,
            },
            abort_op: true,
        });
        let exec = Runner::new(
            cat.clone(),
            &dep,
            &plan,
            RunConfig {
                seed: 2,
                noise: NoiseConfig::off(),
                ..RunConfig::default()
            },
        )
        .run(&[&spec]);
        let ladder = instance_timeline(&exec, &cat, gretel_model::OpInstanceId(0));
        assert!(ladder.contains(" !!"), "{ladder}");
    }

    #[test]
    fn summary_reports_outcomes() {
        let cat = Catalog::openstack();
        let dep = Deployment::standard();
        let wf = Workflows::new(cat.clone());
        let specs = [
            wf.vm_create_spec(OpSpecId(0)),
            wf.cinder_list_spec(OpSpecId(1)),
        ];
        let refs: Vec<_> = specs.iter().collect();
        let exec = Runner::new(cat, &dep, &FaultPlan::none(), RunConfig::default()).run(&refs);
        let s = summary(&exec);
        assert!(s.contains("compute.vm_create.canonical"));
        assert!(s.contains("storage.cinder_list.canonical"));
        assert!(s.contains("total:"));
        assert!(!s.contains("ABORTED"));
    }
}
