//! A small text DSL for defining operations.
//!
//! GRETEL's Limitation 4 notes its coverage "is predicated on the
//! completeness of the test suite": operators must be able to add
//! operations for workloads Tempest does not exercise. This DSL lets them
//! define operations in plain text — no recompilation — which the CLI can
//! characterize into fingerprints on the spot.
//!
//! ```text
//! # Comments start with '#'.
//! operation compute.boot_and_tag compute
//!   horizon -> nova: POST /v2.1/servers [medium, 1024b]
//!   nova -> nova-compute: rpc build_and_run_instance [boot]
//!   nova -> neutron: GET /v2.0/networks.json
//!   horizon -> nova: POST /v2.1/servers/{id}/metadata
//! ```
//!
//! One `operation <name> <category>` header starts each operation; each
//! following indented line is a step: `src -> dst: METHOD uri` for REST or
//! `src -> dst: rpc method` for RPC, with an optional
//! `[latency]`/`[latency, <N>b]` suffix (latency ∈ fast|medium|slow|boot).

use crate::catalog::Catalog;
use crate::operation::{Category, LatencyClass, OpSpecId, OperationSpec, Step};
use crate::service::Service;
use std::fmt;

/// A parse failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Line the problem is on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

fn err(line: usize, message: impl Into<String>) -> DslError {
    DslError {
        line,
        message: message.into(),
    }
}

fn parse_category(s: &str) -> Option<Category> {
    Category::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(s))
}

fn parse_latency(s: &str) -> Option<LatencyClass> {
    Some(match s {
        "fast" => LatencyClass::Fast,
        "medium" => LatencyClass::Medium,
        "slow" => LatencyClass::Slow,
        "boot" => LatencyClass::Boot,
        _ => return None,
    })
}

/// Parse `[latency]` / `[latency, Nb]` suffixes; returns (latency, bytes).
fn parse_attrs(line: usize, attrs: &str) -> Result<(LatencyClass, Option<u32>), DslError> {
    let inner = attrs
        .strip_prefix('[')
        .and_then(|a| a.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("malformed attributes '{attrs}'")))?;
    let mut latency = LatencyClass::Fast;
    let mut bytes = None;
    for part in inner.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        if let Some(l) = parse_latency(part) {
            latency = l;
        } else if let Some(b) = part.strip_suffix('b') {
            bytes = Some(
                b.parse::<u32>()
                    .map_err(|_| err(line, format!("bad byte count '{part}'")))?,
            );
        } else {
            return Err(err(line, format!("unknown attribute '{part}'")));
        }
    }
    Ok((latency, bytes))
}

fn parse_step(lineno: usize, catalog: &Catalog, line: &str) -> Result<Step, DslError> {
    // src -> dst: REST|rpc ... [attrs]
    let (endpoints, rest) = line
        .split_once(':')
        .ok_or_else(|| err(lineno, "expected 'src -> dst: <invocation>'"))?;
    let (src_s, dst_s) = endpoints
        .split_once("->")
        .ok_or_else(|| err(lineno, "expected 'src -> dst'"))?;
    let src = Service::from_name(src_s.trim())
        .ok_or_else(|| err(lineno, format!("unknown service '{}'", src_s.trim())))?;
    let dst = Service::from_name(dst_s.trim())
        .ok_or_else(|| err(lineno, format!("unknown service '{}'", dst_s.trim())))?;

    // Split off optional attributes.
    let rest = rest.trim();
    let (invocation, attrs) = match rest.find('[') {
        Some(i) => (rest[..i].trim(), Some(rest[i..].trim())),
        None => (rest, None),
    };
    let (latency, bytes) = match attrs {
        Some(a) => parse_attrs(lineno, a)?,
        None => (LatencyClass::Fast, None),
    };

    let mut parts = invocation.split_whitespace();
    let kind = parts
        .next()
        .ok_or_else(|| err(lineno, "missing invocation"))?;
    let target = parts
        .next()
        .ok_or_else(|| err(lineno, "missing URI or RPC method"))?;
    if parts.next().is_some() {
        return Err(err(lineno, "trailing tokens after invocation"));
    }

    let api = if kind.eq_ignore_ascii_case("rpc") {
        catalog
            .rpc(dst, target)
            .ok_or_else(|| err(lineno, format!("no RPC '{target}' on {dst}")))?
    } else {
        let method = match kind.to_ascii_uppercase().as_str() {
            "GET" => crate::api::HttpMethod::Get,
            "POST" => crate::api::HttpMethod::Post,
            "PUT" => crate::api::HttpMethod::Put,
            "DELETE" => crate::api::HttpMethod::Delete,
            "PATCH" => crate::api::HttpMethod::Patch,
            "HEAD" => crate::api::HttpMethod::Head,
            other => return Err(err(lineno, format!("unknown method '{other}'"))),
        };
        catalog
            .rest(dst, method, target)
            .ok_or_else(|| err(lineno, format!("no REST API {kind} {target} on {dst}")))?
    };
    let mut step = Step::new(api, src, dst, latency);
    if let Some(b) = bytes {
        step = step.with_bytes(b);
    }
    Ok(step)
}

/// Parse a DSL document into operation specs with ids starting at
/// `first_id`. Every parsed spec is validated against the catalog.
///
/// ```
/// use gretel_model::{parse_dsl, Catalog, OpSpecId};
///
/// let catalog = Catalog::openstack();
/// let doc = "operation misc.catalog_probe misc\n  horizon -> keystone: GET /v3\n";
/// let specs = parse_dsl(&catalog, doc, OpSpecId(0)).unwrap();
/// assert_eq!(specs[0].name, "misc.catalog_probe");
/// assert_eq!(specs[0].len(), 1);
/// ```
pub fn parse(
    catalog: &Catalog,
    text: &str,
    first_id: OpSpecId,
) -> Result<Vec<OperationSpec>, DslError> {
    let mut specs: Vec<OperationSpec> = Vec::new();
    let mut current: Option<(usize, OperationSpec)> = None;

    let finish = |current: &mut Option<(usize, OperationSpec)>,
                  specs: &mut Vec<OperationSpec>|
     -> Result<(), DslError> {
        if let Some((header_line, spec)) = current.take() {
            let problems = spec.validate(catalog);
            if let Some(p) = problems.first() {
                return Err(err(header_line, format!("invalid operation: {p}")));
            }
            specs.push(spec);
        }
        Ok(())
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if line.trim().is_empty() {
            continue;
        }
        if let Some(head) = line.trim().strip_prefix("operation ") {
            finish(&mut current, &mut specs)?;
            let mut parts = head.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| err(lineno, "operation needs a name"))?
                .to_string();
            let cat_s = parts
                .next()
                .ok_or_else(|| err(lineno, "operation needs a category"))?;
            let category = parse_category(cat_s)
                .ok_or_else(|| err(lineno, format!("unknown category '{cat_s}'")))?;
            if parts.next().is_some() {
                return Err(err(lineno, "trailing tokens after operation header"));
            }
            let id = OpSpecId(first_id.0 + specs.len() as u16);
            current = Some((
                lineno,
                OperationSpec {
                    id,
                    name,
                    category,
                    steps: Vec::new(),
                },
            ));
        } else {
            let (_, spec) = current
                .as_mut()
                .ok_or_else(|| err(lineno, "step before any 'operation' header"))?;
            spec.steps.push(parse_step(lineno, catalog, line.trim())?);
        }
    }
    finish(&mut current, &mut specs)?;
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HttpMethod;

    const DOC: &str = r#"
# A custom operation not covered by Tempest.
operation compute.boot_and_tag compute
  horizon -> nova: POST /v2.1/servers [medium, 1024b]
  nova -> nova-compute: rpc build_and_run_instance [boot]
  nova -> neutron: GET /v2.0/networks.json
  horizon -> nova: POST /v2.1/servers/{id}/metadata

operation storage.quick_list storage
  horizon -> cinder: GET /v2/{tenant}/volumes
"#;

    #[test]
    fn parses_a_document() {
        let cat = Catalog::openstack();
        let specs = parse(&cat, DOC, OpSpecId(0)).expect("parses");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "compute.boot_and_tag");
        assert_eq!(specs[0].category, Category::Compute);
        assert_eq!(specs[0].len(), 4);
        assert_eq!(specs[0].steps[0].request_bytes, 1024);
        assert_eq!(specs[0].steps[0].latency, LatencyClass::Medium);
        assert_eq!(specs[0].steps[1].latency, LatencyClass::Boot);
        assert_eq!(specs[1].id, OpSpecId(1));
        // Steps resolve to real catalog APIs.
        let servers = cat.rest_expect(Service::Nova, HttpMethod::Post, "/v2.1/servers");
        assert_eq!(specs[0].steps[0].api, servers);
    }

    #[test]
    fn first_id_offsets_ids() {
        let cat = Catalog::openstack();
        let specs = parse(&cat, DOC, OpSpecId(100)).unwrap();
        assert_eq!(specs[0].id, OpSpecId(100));
        assert_eq!(specs[1].id, OpSpecId(101));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cat = Catalog::openstack();
        let bad = "operation x compute\n  horizon -> nova: FROB /v2.1/servers\n";
        let e = parse(&cat, bad, OpSpecId(0)).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("FROB"));

        let e = parse(&cat, "  horizon -> nova: GET /v2.1/servers\n", OpSpecId(0)).unwrap_err();
        assert!(e.message.contains("before any"));

        let e = parse(&cat, "operation x nowhere\n", OpSpecId(0)).unwrap_err();
        assert!(e.message.contains("unknown category"));

        let e = parse(
            &cat,
            "operation x compute\n  mars -> nova: GET /v2.1/servers\n",
            OpSpecId(0),
        )
        .unwrap_err();
        assert!(e.message.contains("unknown service 'mars'"));

        let e = parse(
            &cat,
            "operation x compute\n  horizon -> nova: GET /no/such\n",
            OpSpecId(0),
        )
        .unwrap_err();
        assert!(e.message.contains("no REST API"));
    }

    #[test]
    fn empty_operations_are_rejected() {
        let cat = Catalog::openstack();
        let e = parse(&cat, "operation x compute\n", OpSpecId(0)).unwrap_err();
        assert!(e.message.contains("no steps"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cat = Catalog::openstack();
        let doc = "\n# top comment\noperation a misc # trailing\n  horizon -> keystone: GET /v3\n";
        let specs = parse(&cat, doc, OpSpecId(0)).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].len(), 1);
    }

    #[test]
    fn parsed_specs_execute_and_fingerprint() {
        // A DSL-defined operation round-trips through the whole stack.
        let cat = Catalog::openstack();
        let specs = parse(&cat, DOC, OpSpecId(0)).unwrap();
        for s in &specs {
            assert!(s.validate(&cat).is_empty());
        }
    }
}
