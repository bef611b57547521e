//! Capture simulated control traffic to a pcap-style file and read it
//! back — the `gretel-netcap` substrate in isolation.
//!
//! ```sh
//! cargo run --release --example capture_to_pcap
//! ```

use gretel::netcap::{encoded_len, pcap, CaptureAgent};
use gretel::prelude::*;

fn main() {
    let catalog = Catalog::openstack();
    let deployment = Deployment::standard();
    let wf = Workflows::new(catalog.clone());
    let specs = [
        wf.vm_create_spec(OpSpecId(0)),
        wf.image_upload_spec(OpSpecId(1)),
    ];
    let refs: Vec<&OperationSpec> = specs.iter().collect();
    let exec = Runner::new(
        catalog.clone(),
        &deployment,
        &FaultPlan::none(),
        RunConfig::default(),
    )
    .run(&refs);

    // Per-node egress agents: each message is captured by exactly one
    // agent, and the traffic is already in the receiver's (ts, id) order.
    let nodes: Vec<_> = deployment.nodes().iter().map(|n| n.id).collect();
    let agents: Vec<CaptureAgent> = nodes.iter().map(|&n| CaptureAgent::new(n)).collect();
    let merged: Vec<Message> = exec
        .messages
        .iter()
        .filter(|m| agents.iter().any(|a| a.observes(m)))
        .cloned()
        .collect();
    let wire_bytes: usize = merged.iter().map(encoded_len).sum();
    println!(
        "captured {} relevant messages ({} wire bytes) across {} agents",
        merged.len(),
        wire_bytes,
        nodes.len()
    );

    // Persist to a pcap-style dump and read it back.
    let path = std::env::temp_dir().join("gretel-capture.pcap");
    let mut file = std::fs::File::create(&path).expect("create pcap");
    pcap::write_capture(&mut file, &merged).expect("write pcap");
    drop(file);

    let mut file = std::fs::File::open(&path).expect("open pcap");
    let restored = pcap::read_capture(&mut file).expect("read pcap");
    assert_eq!(restored, merged, "pcap round-trip is lossless");
    println!(
        "wrote and re-read {} records via {} — lossless",
        restored.len(),
        path.display()
    );

    for m in restored.iter().take(8) {
        println!("  {m}");
    }
    std::fs::remove_file(&path).ok();
}
