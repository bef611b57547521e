//! Diagnosis reports.
//!
//! The analyzer's output for one fault: what kind of fault, which
//! high-level administrative operations matched (and with what precision
//! θ), and the root causes found. This is the artifact the paper's case
//! studies (§7.2) hand to the operator.

use crate::rca::RootCause;
use gretel_model::{ApiId, OpSpecId, OperationSpec};
use gretel_sim::SimTime;

/// Kind of diagnosed fault.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum FaultKind {
    /// API error response.
    Operational {
        /// HTTP status (REST errors).
        status: Option<u16>,
        /// Whether the error arrived in an RPC message.
        rpc: bool,
    },
    /// Anomalous API latency (level shift).
    Performance {
        /// Observed (shifted) latency, ms.
        observed_ms: f64,
        /// Pre-shift baseline latency, ms.
        baseline_ms: f64,
    },
}

/// How much of the capture around a fault actually reached the analyzer.
///
/// A diagnosis is never silently wrong about its evidence: when the frozen
/// window contains capture-gap markers (frames the receiver inferred lost
/// from per-agent sequence numbers), the diagnosis says so instead of
/// presenting a lossy match as exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub enum CaptureConfidence {
    /// Every frame around the fault was captured; matching ran on complete
    /// evidence.
    #[default]
    Exact,
    /// The snapshot window spans capture gaps; matching may have widened
    /// across the holes (degraded mode).
    Degraded {
        /// Distinct gap markers inside the window.
        gaps: u32,
        /// Total frames inferred lost inside the window.
        lost: u32,
    },
    /// Snapshot analysis was cancelled — the job stalled, or its worker
    /// kept crashing past the retry budget: the fault is reported (never
    /// silently swallowed) but no matching or root-cause evidence backs it.
    Cancelled,
}

impl CaptureConfidence {
    /// True for [`CaptureConfidence::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, CaptureConfidence::Exact)
    }
}

/// One complete diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Fault classification.
    pub kind: FaultKind,
    /// The offending API.
    pub api: ApiId,
    /// Time of the fault.
    pub ts: SimTime,
    /// Operations matched by the snapshot (the failed high-level task).
    pub matched: Vec<OpSpecId>,
    /// Precision θ of the match.
    pub theta: f64,
    /// Context-buffer size used.
    pub beta_used: usize,
    /// Candidate operations before snapshot matching ("with API error"
    /// baseline).
    pub candidates: usize,
    /// Root causes, most relevant first.
    pub root_causes: Vec<RootCause>,
    /// Capture quality of the snapshot this diagnosis was made from.
    pub confidence: CaptureConfidence,
    /// Cascade attribution (root vs symptom), set by the state-graph
    /// post-pass ([`crate::graph::attribute_cascades`]) when this fault is
    /// part of a detected failure-propagation cascade. `None` — and
    /// skipped entirely in serialized output — for ordinary single-service
    /// faults, so reports without cascade structure are byte-identical to
    /// the flat RCA path.
    pub attribution: Option<crate::graph::Attribution>,
}

// Manual impl (not derived) so a `None` attribution is omitted from the
// output entirely: a run without cascade structure must serialize
// byte-identically to the pre-graph flat path.
impl serde::Serialize for Diagnosis {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("kind".to_string(), self.kind.to_value()),
            ("api".to_string(), self.api.to_value()),
            ("ts".to_string(), self.ts.to_value()),
            ("matched".to_string(), self.matched.to_value()),
            ("theta".to_string(), self.theta.to_value()),
            ("beta_used".to_string(), self.beta_used.to_value()),
            ("candidates".to_string(), self.candidates.to_value()),
            ("root_causes".to_string(), self.root_causes.to_value()),
            ("confidence".to_string(), self.confidence.to_value()),
        ];
        if let Some(attr) = &self.attribution {
            fields.push(("attribution".to_string(), attr.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Diagnosis {
    /// Whether the diagnosis narrowed the fault to exactly one operation.
    pub fn is_precise(&self) -> bool {
        self.matched.len() == 1
    }

    /// Render a human-readable report. `specs` resolves operation names;
    /// pass the suite the library was trained on.
    pub fn render(&self, specs: &[OperationSpec]) -> String {
        let mut out = String::new();
        match &self.kind {
            FaultKind::Operational { status, rpc } => {
                out.push_str(&format!(
                    "OPERATIONAL fault at t={:.3}s on {} ({})\n",
                    self.ts as f64 / 1e6,
                    self.api,
                    match (status, rpc) {
                        (Some(s), _) => format!("HTTP {s}"),
                        (None, true) => "RPC exception".to_string(),
                        (None, false) => "error".to_string(),
                    }
                ));
            }
            FaultKind::Performance {
                observed_ms,
                baseline_ms,
            } => {
                out.push_str(&format!(
                    "PERFORMANCE fault at t={:.3}s on {}: latency {:.1} ms (baseline {:.1} ms)\n",
                    self.ts as f64 / 1e6,
                    self.api,
                    observed_ms,
                    baseline_ms
                ));
            }
        }
        out.push_str(&format!(
            "  matched {} operation(s), theta={:.4}, context={} msgs:\n",
            self.matched.len(),
            self.theta,
            self.beta_used
        ));
        match self.confidence {
            CaptureConfidence::Exact => {}
            CaptureConfidence::Degraded { gaps, lost } => {
                out.push_str(&format!(
                    "  capture DEGRADED: {lost} frame(s) lost across {gaps} gap(s) in the window\n"
                ));
            }
            CaptureConfidence::Cancelled => {
                out.push_str(
                    "  analysis CANCELLED: the job stalled or ran out of retries; no matching evidence\n",
                );
            }
        }
        for op in &self.matched {
            let name = specs
                .get(op.index())
                .map(|s| s.name.as_str())
                .unwrap_or("<unknown>");
            out.push_str(&format!("    - {name} ({op})\n"));
        }
        if self.root_causes.is_empty() {
            out.push_str("  root cause: none identified\n");
        } else {
            for rc in &self.root_causes {
                out.push_str(&format!("  root cause on {}: {}\n", rc.node, rc.why));
            }
        }
        if let Some(attr) = &self.attribution {
            out.push_str(&attr.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rca::CauseKind;
    use gretel_model::{Category, Dependency, NodeId, Service};

    fn spec(name: &str) -> OperationSpec {
        OperationSpec {
            id: OpSpecId(0),
            name: name.into(),
            category: Category::Compute,
            steps: vec![],
        }
    }

    #[test]
    fn render_operational() {
        let d = Diagnosis {
            kind: FaultKind::Operational {
                status: Some(413),
                rpc: false,
            },
            api: ApiId(5),
            ts: 1_500_000,
            matched: vec![OpSpecId(0)],
            theta: 1.0,
            beta_used: 77,
            candidates: 12,
            root_causes: vec![RootCause {
                node: NodeId(2),
                cause: CauseKind::Dependency(Dependency::ServiceProcess(Service::Glance)),
                why: "glance-service reported down".into(),
            }],
            confidence: CaptureConfidence::Exact,
            attribution: None,
        };
        let s = d.render(&[spec("image.upload.canonical")]);
        assert!(s.contains("OPERATIONAL"));
        assert!(s.contains("HTTP 413"));
        assert!(s.contains("image.upload.canonical"));
        assert!(s.contains("glance-service reported down"));
        assert!(!s.contains("DEGRADED"));
        assert!(d.is_precise());
    }

    #[test]
    fn render_mentions_degraded_capture() {
        let d = Diagnosis {
            kind: FaultKind::Operational {
                status: Some(500),
                rpc: false,
            },
            api: ApiId(5),
            ts: 0,
            matched: vec![OpSpecId(0)],
            theta: 1.0,
            beta_used: 32,
            candidates: 4,
            root_causes: vec![],
            confidence: CaptureConfidence::Degraded { gaps: 2, lost: 7 },
            attribution: None,
        };
        let s = d.render(&[spec("op")]);
        assert!(s.contains("capture DEGRADED"));
        assert!(s.contains("7 frame(s) lost across 2 gap(s)"));
        assert!(!d.confidence.is_exact());
    }

    #[test]
    fn render_mentions_cancelled_analysis() {
        let d = Diagnosis {
            kind: FaultKind::Operational {
                status: Some(503),
                rpc: false,
            },
            api: ApiId(2),
            ts: 0,
            matched: vec![],
            theta: 0.0,
            beta_used: 0,
            candidates: 0,
            root_causes: vec![],
            confidence: CaptureConfidence::Cancelled,
            attribution: None,
        };
        let s = d.render(&[]);
        assert!(s.contains("analysis CANCELLED"));
        assert!(!d.confidence.is_exact());
    }

    #[test]
    fn render_performance_without_cause() {
        let d = Diagnosis {
            kind: FaultKind::Performance {
                observed_ms: 130.0,
                baseline_ms: 28.0,
            },
            api: ApiId(9),
            ts: 0,
            matched: vec![],
            theta: 0.5,
            beta_used: 768,
            candidates: 3,
            root_causes: vec![],
            confidence: CaptureConfidence::Exact,
            attribution: None,
        };
        let s = d.render(&[]);
        assert!(s.contains("PERFORMANCE"));
        assert!(s.contains("130.0 ms"));
        assert!(s.contains("none identified"));
        assert!(!d.is_precise());
    }
}
