//! DirectGraph anatomy: convert a graph, walk a node's sections, run a
//! die-level sampling cascade, and verify the §VI-E security checks.
//!
//! ```sh
//! cargo run --release --example directgraph_inspect
//! ```

use beacongnn::directgraph::{Section, Validator};
use beacongnn::flash::sampler::{DieSampler, GnnDieConfig, SampleCommand};
use beacongnn::report::percent;
use beacongnn::{Dataset, NodeId, Workload, WorkloadError};

fn main() -> Result<(), WorkloadError> {
    let workload = Workload::builder()
        .dataset(Dataset::Reddit) // high degree: exercises secondary sections
        .nodes(3_000)
        .batch_size(1)
        .batches(1)
        .seed(11)
        .prepare()?;
    let dg = workload.directgraph();
    let inflation = dg.inflation(workload.spec().feature_bytes());

    println!(
        "Converted {} nodes / {} edges -> {} flash pages, inflation {}",
        workload.graph().num_nodes(),
        workload.graph().num_edges(),
        dg.stats().total_pages(),
        percent(inflation.inflation_ratio()),
    );

    // Walk the highest-degree node's sections.
    let hub = workload
        .graph()
        .nodes()
        .max_by_key(|&v| workload.graph().degree(v))
        .expect("non-empty graph");
    let addr = dg.directory().primary_addr(hub).expect("hub in directory");
    let section = dg.image().parse_section(addr).expect("parses");
    if let Section::Primary(p) = &section {
        println!(
            "\nnode {hub}: degree {}, {} inline neighbors, {} secondary sections, {}-byte feature",
            p.total_neighbors,
            p.inline_count(),
            p.secondary_addrs.len(),
            p.feature.len(),
        );
        for (i, &sa) in p.secondary_addrs.iter().take(3).enumerate() {
            let s = dg.image().parse_section(sa).expect("secondary parses");
            if let Section::Secondary(s) = s {
                println!(
                    "  secondary {i} at {sa}: neighbors [{}..{})",
                    s.owner_start,
                    s.owner_start as usize + s.neighbors.len()
                );
            }
        }
    }

    // Run a 2-hop sampling cascade entirely through the die-sampler
    // model, like the SSD backend would.
    let cfg = GnnDieConfig {
        num_hops: 2,
        fanout: 3,
        feature_bytes: 400,
    };
    let mut sampler = DieSampler::new(cfg, 99);
    let mut frontier = vec![SampleCommand::root(addr, 0)];
    let mut visited = 0u64;
    while let Some(cmd) = frontier.pop() {
        let out = sampler
            .execute(&cmd, dg.image())
            .expect("image well-formed");
        if out.visited.is_some() {
            visited += 1;
        }
        frontier.extend(out.new_commands);
    }
    println!("\nsampling cascade from {hub}: visited {visited} nodes (expect <= 13 for 2x3)");

    // Firmware security validation (§VI-E).
    let validator = Validator::new(dg);
    validator.verify_image().expect("image addresses in bounds");
    validator.verify_target(hub, addr).expect("target valid");
    let bogus = NodeId::new(0);
    let err = validator.verify_target(bogus, addr).unwrap_err();
    println!("security check rejects a mismatched target as expected: {err}");
    Ok(())
}
