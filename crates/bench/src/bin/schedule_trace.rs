//! Export a Chrome-tracing JSON of a simulated schedule of the whole-solve
//! QDWH graph the solver emits (`polar_qdwh::task_graph`) — open the
//! output in `chrome://tracing` or https://ui.perfetto.dev to *see* the
//! task-based pipeline (and, side by side, the fork-join bubbles the
//! paper's §3 complains about).
//!
//! ```sh
//! cargo run --release -p polar-bench --bin schedule_trace -- \
//!     --tiles 12 --nodes 1 [--fork-join] [--out trace.json]
//! ```

use polar_bench::{paper_profile_graph, Args};
use polar_runtime::{simulate_traced, write_chrome_trace, SchedulingMode};
use polar_sim::machine::{ClusterModel, ExecTarget, NodeSpec};

fn main() {
    let args = Args::parse();
    let t = args.get("--tiles", 12usize);
    let nodes = args.get("--nodes", 1usize);
    let fork_join = args.flag("--fork-join");
    let out: String = args.get("--out", String::from("schedule_trace.json"));

    let summit = NodeSpec::summit();
    let g = paper_profile_graph(t, 320, nodes * summit.slate_ranks_per_node);
    let model = ClusterModel::slate(summit, nodes, ExecTarget::CpuOnly, 320);
    let mode = if fork_join { SchedulingMode::ForkJoin } else { SchedulingMode::TaskBased };
    let (stats, events) = simulate_traced(&g, &model, mode);
    let file = std::fs::File::create(&out).expect("create trace file");
    write_chrome_trace(&events, std::io::BufWriter::new(file)).expect("write trace");
    println!(
        "wrote {} events to {out} ({:?}, {} tiles/side, {nodes} node(s)): makespan {:.3}s, {} messages",
        events.len(),
        mode,
        t,
        stats.makespan,
        stats.messages
    );
    println!("open in chrome://tracing or ui.perfetto.dev — rows are (rank, slot).");
}
