//! COMM: point-to-point traffic of the whole-solve QDWH task graph under
//! 2D block-cyclic process grids. `qdwh_distributed` solves on the tiled
//! path, emits the graph of the iterations that ran with the solver's own
//! emitters, places every task on the owner of its home tile and meters the
//! tiles whose last writer sits on another rank (`TaskGraph::comm`, the
//! rule the discrete-event simulator charges transfer time by).
//!
//! ```sh
//! cargo run --release -p polar-bench --bin comm_volume
//! ```

use polar_gen::{generate, MatrixSpec};
use polar_matrix::ProcessGrid;
use polar_qdwh::{qdwh_distributed, DistConfig, QdwhOptions};

fn main() {
    let n = 64usize;
    let nb = 8usize;
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 99));

    println!("# COMM: metered traffic of the executed QDWH graph (n = {n}, nb = {nb}, f64)");
    println!(
        "# {:>7} | {:>10} {:>10} {:>10} | {:>12}",
        "grid", "tile tasks", "messages", "MB", "tiles / task"
    );

    let tile_bytes = (8 * nb * nb) as f64;
    for (p, q) in [(1usize, 1usize), (1, 2), (2, 2), (2, 4), (4, 4)] {
        let cfg = DistConfig { grid: ProcessGrid::new(p, q), nb };
        let out = qdwh_distributed(&a, &QdwhOptions::default(), &cfg).expect("dist qdwh");
        let bytes = out.comm.point_to_point_bytes as f64;
        println!(
            "  {:>3}x{:<3} | {:>10} {:>10} {:>10.3} | {:>12.2}",
            p,
            q,
            out.tile_tasks,
            out.comm.point_to_point_messages,
            bytes / 1e6,
            bytes / tile_bytes / out.tile_tasks as f64,
        );
    }
    println!("# one graph, five owner maps: the task count is fixed, the traffic grows");
    println!("# with the grid, and one rank moves nothing.");
}
