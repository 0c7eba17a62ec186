//! Every paper artifact under `results/`, from one run: the tables of
//! Figs. 1–6 and of the in-text iteration, tile-size, scheduler,
//! communication and Zolo-PD claims (DESIGN.md §4, EXPERIMENTS.md), written
//! to `results/all_figures.txt`, the figure series also to one CSV each.
//!
//! FIG1A/FIG1B, TAB-ITER and the first ABL-ZOLO table run the real
//! arithmetic. Their last digits depend on the microkernel, so the text
//! opens with its name; they do not depend on the pool width (a solve's
//! tile size is a function of its shape). Every other table is the
//! Summit/Frontier model or the discrete-event simulator, which depend on
//! neither.
//!
//! ```sh
//! cargo run --release -p polar-bench --bin figures
//! ```
//!
//! `./ci.sh figures` runs this and fails if one byte under `results/`
//! differs from the checked-in files.

use std::fmt::Display;
use std::io::Write as _;

use polar_bench::{paper_matrix_spec, paper_profile_graph};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::ProcessGrid;
use polar_qdwh::{
    orthogonality_error, qdwh, qdwh_distributed, DistConfig, L0Strategy, QdwhInfo, QdwhOptions,
};
use polar_runtime::{simulate, ExecutionModel, SchedulingMode};
use polar_sim::machine::{ClusterModel, ExecTarget, NodeSpec};
use polar_sim::{
    estimate_qdwh_time, estimate_zolo_time, AnalyticBreakdown, Implementation,
    ILL_CONDITIONED_PROFILE,
};

/// Paper-scale sizes of the Summit figures.
const SUMMIT_SIZES: [usize; 10] =
    [20_000, 40_000, 60_000, 80_000, 100_000, 130_000, 160_000, 200_000, 250_000, 300_000];

/// Sizes of the Frontier figures, up to the paper's memory-limited 175k.
const FRONTIER_SIZES: [usize; 7] = [25_000, 50_000, 75_000, 100_000, 125_000, 150_000, 175_000];

fn main() {
    let mut out = Out::default();
    out.line(format!("# f64 microkernel {}", polar_blas::microkernel::<f64>()));
    out.line("# the real-arithmetic rows (FIG1A/FIG1B, TAB-ITER, ABL-ZOLO part 1) depend on it; the models do not");
    let sections: [fn(&mut Out); 10] =
        [fig1, fig2_3, fig4, fig5, fig6, tab_iter, abl_nb, abl_sched, comm, abl_zolo];
    for section in sections {
        section(&mut out);
    }

    for (name, csv) in &out.csvs {
        write_result(&format!("{name}.csv"), csv);
    }
    write_result("all_figures.txt", &out.text);
    print!("{}", out.text);
}

fn write_result(name: &str, text: &str) {
    let path = format!("results/{name}");
    polar_bench::create_out(&path)
        .write_all(text.as_bytes())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The modeled ill-conditioned QDWH (3 QR + 3 Cholesky iterations) of
/// `imp` at its tuned tile size: 320 on GPUs, 192 on CPUs (ABL-NB).
fn model(node: &NodeSpec, nodes: usize, imp: Implementation, n: usize) -> AnalyticBreakdown {
    let nb = if imp == Implementation::SlateGpu { 320 } else { 192 };
    let (it_qr, it_chol) = ILL_CONDITIONED_PROFILE;
    estimate_qdwh_time(node, nodes, imp, n, nb, it_qr, it_chol)
}

/// FIG1A + FIG1B: orthogonality and backward error of QDWH vs n at
/// kappa = 1e16, with the tight sigma_min seed ("SLATE") and the paper's
/// l0 formula ("ScaLAPACK"/POLAR). Both must sit at machine precision.
fn fig1(out: &mut Out) {
    out.section("FIG1A / FIG1B");
    out.line("# Fig. 1 reproduction: QDWH accuracy vs matrix size (kappa = 1e16)");
    let slate_opts = QdwhOptions::default();
    let polar_opts = QdwhOptions { l0_strategy: L0Strategy::PaperFormula, ..Default::default() };
    let mut t = out.table(
        Some("fig1_accuracy"),
        vec![
            col("n", 6).csv("n"),
            col("orth(SLATE)", 12).bar().csv("orth_slate"),
            col("orth(SCA)", 12).csv("orth_scalapack"),
            col("bwd(SLATE)", 12).bar().csv("bwd_slate"),
            col("bwd(SCA)", 12).csv("bwd_scalapack"),
            col("it_S", 5).bar(),
            col("it_P", 5),
        ],
    );
    for n in [128usize, 192, 256, 384, 512, 768] {
        let (a, _) = generate::<f64>(&paper_matrix_spec(n, 1000 + n as u64));
        let slate = qdwh(&a, &slate_opts).expect("slate-analog qdwh");
        let polar = qdwh(&a, &polar_opts).expect("polar-analog qdwh");
        let errs = [
            orthogonality_error(&slate.u),
            orthogonality_error(&polar.u),
            slate.backward_error(&a),
            polar.backward_error(&a),
        ];
        assert!(errs.iter().all(|&e| e < 1e-12), "accuracy regression at n = {n}: {errs:?}");
        let [o_s, o_p, b_s, b_p] = errs.map(|e| sci(e, 3));
        let (it_s, it_p) = (plain(slate.info.iterations), plain(polar.info.iterations));
        t.row([plain(n), o_s, o_p, b_s, b_p, it_s, it_p]);
    }
    out.line("# series written to results/fig1_accuracy.csv");
    out.line("# paper: both implementations remain ~1e-15 across sizes — reproduced.");
}

/// FIG2A/FIG2B/FIG3A/FIG3B: the three series on 1, 8, 16 and 32 Summit
/// nodes, with the GPU-over-ScaLAPACK speedup behind TAB-SPEEDUP.
fn fig2_3(out: &mut Out) {
    let summit = NodeSpec::summit();
    for (nodes, fig) in [(1usize, "2a"), (8, "2b"), (16, "3a"), (32, "3b")] {
        out.section(&format!("FIG{}", fig.to_uppercase()));
        out.line(format!(
            "# Fig. {fig} reproduction: {nodes} Summit node(s) ({} P9 cores, {} V100 GPUs)",
            nodes * summit.cpu_cores,
            nodes * summit.gpus
        ));
        let csv = format!("fig_summit_{nodes}nodes");
        let mut t = out.table(
            Some(&csv),
            vec![
                col("n", 8).csv("n"),
                col("SLATE-GPU", 11).bar().csv("slate_gpu_tflops"),
                col("SLATE-CPU", 11).csv("slate_cpu_tflops"),
                col("ScaLAPACK", 11).csv("scalapack_tflops"),
                col("GPU/SCA", 9).bar().csv("speedup"),
            ],
        );
        let mut best_speedup: f64 = 0.0;
        for n in SUMMIT_SIZES {
            let gpu = model(&summit, nodes, Implementation::SlateGpu, n).tflops;
            let cpu = model(&summit, nodes, Implementation::SlateCpu, n).tflops;
            let sca = model(&summit, nodes, Implementation::ScaLapack, n).tflops;
            let speedup = gpu / sca;
            best_speedup = best_speedup.max(speedup);
            t.row([
                plain(n),
                fixed(gpu, 2),
                fixed(cpu, 3),
                fixed(sca, 3),
                fixed(speedup, 1).unit("x"),
            ]);
        }
        out.line(format!("# series written to results/{csv}.csv"));
        out.line(format!("# max speedup at {nodes} node(s): {best_speedup:.1}x"));
        out.line("# paper: up to 18x on 1 and 4 nodes, ~13x on 8 nodes; SLATE-CPU ~ ScaLAPACK.");
    }
}

/// SLATE-GPU Tflop/s vs n, one column per node count (Figs. 4 and 6),
/// mirrored to `results/<csv>.csv`; returns the estimates, a row per size.
fn scaling_table(
    out: &mut Out,
    csv: &str,
    node: &NodeSpec,
    node_counts: &[usize],
    sizes: &[usize],
) -> Vec<Vec<AnalyticBreakdown>> {
    let mut cols = vec![col("n", 8).csv("n")];
    for (i, nc) in node_counts.iter().enumerate() {
        let c = col(format!("{nc} node"), 8).csv(format!("nodes{nc}"));
        cols.push(if i == 0 { c.bar() } else { c });
    }
    let mut t = out.table(Some(csv), cols);
    let mut rows = Vec::new();
    for &n in sizes {
        let row: Vec<_> =
            node_counts.iter().map(|&k| model(node, k, Implementation::SlateGpu, n)).collect();
        t.row(std::iter::once(plain(n)).chain(row.iter().map(|r| fixed(r.tflops, 1))));
        rows.push(row);
    }
    rows
}

/// FIG4: SLATE-GPU scalability on Summit — limited strong scaling at fixed
/// n, good weak scaling at the largest size per node count.
fn fig4(out: &mut Out) {
    out.section("FIG4");
    out.line("# Fig. 4 reproduction: SLATE-GPU QDWH scalability on Summit (Tflop/s)");
    let node_counts = [1usize, 2, 4, 8, 16, 32];
    let rows =
        scaling_table(out, "fig4_summit_scaling", &NodeSpec::summit(), &node_counts, &SUMMIT_SIZES);
    let n_fixed = 100_000;
    let at_fixed = &rows[SUMMIT_SIZES.iter().position(|&n| n == n_fixed).expect("n_fixed swept")];
    out.line(format!("\n# strong scaling at n = {n_fixed} (speedup vs 1 node; ideal = nodes):"));
    for (nodes, r) in node_counts.iter().zip(at_fixed) {
        let speedup = at_fixed[0].seconds / r.seconds;
        let efficiency = 100.0 * speedup / *nodes as f64;
        out.line(format!("#   {nodes:>2} nodes: {speedup:>5.2}x (efficiency {efficiency:>5.1}%)"));
    }
    out.line("# paper: strong scalability limited; good weak scalability at the largest sizes.");
}

/// FIG5: 16 Frontier nodes (896 EPYC cores, 128 MI250X GCDs), up to
/// ~180 Tflop/s at n = 175k.
fn fig5(out: &mut Out) {
    out.section("FIG5");
    let frontier = NodeSpec::frontier();
    let nodes = 16usize;
    out.line(format!(
        "# Fig. 5 reproduction: {nodes} Frontier nodes ({} EPYC cores, {} GCDs)",
        nodes * frontier.cpu_cores,
        nodes * frontier.gpus
    ));
    let agg_dgemm = nodes as f64 * frontier.node_gflops(ExecTarget::GpuAccelerated) / 1e3;
    let mut t = out.table(
        Some("fig5_frontier16"),
        vec![
            col("n", 8).csv("n"),
            col("Tflop/s", 10).bar().csv("slate_gpu_tflops"),
            col("% dgemm agg", 12).csv("pct_dgemm_agg"),
            col("CPU Tflop/s", 12).bar().csv("slate_cpu_tflops"),
        ],
    );
    let mut top = 0.0;
    for n in FRONTIER_SIZES {
        let gpu = model(&frontier, nodes, Implementation::SlateGpu, n).tflops;
        let cpu = model(&frontier, nodes, Implementation::SlateCpu, n).tflops;
        t.row([
            plain(n),
            fixed(gpu, 1),
            fixed(100.0 * gpu / agg_dgemm, 1).unit("%"),
            fixed(cpu, 2),
        ]);
        top = gpu;
    }
    out.line(format!(
        "# at n = 175k: {top:.0} Tflop/s (paper: ~180 Tflop/s, \"around 24% of peak\" by the paper's accounting)"
    ));
}

/// FIG6: SLATE-GPU scalability on Frontier; the rate must grow with the
/// node count.
fn fig6(out: &mut Out) {
    out.section("FIG6");
    out.line("# Fig. 6 reproduction: SLATE-GPU QDWH scalability on Frontier (Tflop/s)");
    let node_counts = [1usize, 2, 4, 8, 16];
    let frontier = NodeSpec::frontier();
    let rows =
        scaling_table(out, "fig6_frontier_scaling", &frontier, &node_counts, &FRONTIER_SIZES);
    let ok = rows.last().expect("sizes swept").windows(2).all(|w| w[1].tflops > w[0].tflops);
    out.line("\n# monotonicity checks (paper: rate grows with nodes and with n):");
    out.line(format!("#   rate increases with node count at n = 175k: {ok}"));
    assert!(ok, "Fig. 6: the rate at n = 175k must grow with the node count");
}

/// TAB-ITER: iteration counts vs kappa at n = 256, both l0 estimators —
/// six iterations at kappa = 1e16 (3 QR + 3 Cholesky with the paper's
/// formula), no QR iteration when well conditioned.
fn tab_iter(out: &mut Out) {
    out.section("TAB-ITER");
    let n = 256;
    out.line(format!(
        "# TAB-ITER reproduction: QDWH iteration profile vs condition number (n = {n})"
    ));
    let split = |head| Col { left: true, ..col(head, 22).bar() };
    let mut t = out.table(
        None,
        vec![
            col("kappa", 9),
            split("paper l0: it (qr/chol)"),
            split("tight l0: it (qr/chol)"),
            col("<=6?", 6).bar(),
        ],
    );
    let paper_opts = QdwhOptions { l0_strategy: L0Strategy::PaperFormula, ..Default::default() };
    let it = |i: &QdwhInfo<f64>| {
        plain(format!("{:>10} ({}/{})", i.iterations, i.qr_iterations, i.chol_iterations))
    };
    for kappa in [1.0f64, 10.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e13, 1e16] {
        let distribution = SigmaDistribution::Geometric;
        let (a, _) =
            generate::<f64>(&MatrixSpec { m: n, n, cond: kappa, distribution, seed: 2023 });
        let paper = qdwh(&a, &paper_opts).expect("paper-l0 qdwh").info;
        let tight = qdwh(&a, &QdwhOptions::default()).expect("tight-l0 qdwh").info;
        let at_most_6 = paper.iterations <= 6 && tight.iterations <= 6;
        t.row([sci(kappa, 0), it(&paper), it(&tight), plain(at_most_6)]);
    }
    out.line("# paper: kappa=1e16 -> six iterations (3 QR + 3 Cholesky, matching the");
    out.line("#        paper-formula seed); well-conditioned -> 2 Cholesky, 0 QR.");
}

/// ABL-NB: nb = 320 is the best GPU tile and nb = 192 the best CPU tile at
/// paper-scale n; the discrete-event simulator on the emitted graph at a
/// reduced n for comparison.
fn abl_nb(out: &mut Out) {
    out.section("ABL-NB");
    let (it_qr, it_chol) = ILL_CONDITIONED_PROFILE;
    let summit = NodeSpec::summit();
    let n = 100_000usize;
    out.line(format!("# ABL-NB: tile-size ablation, analytic model, 1 Summit node, n = {n}"));
    let cols = vec![col("nb", 5), col("GPU Tflop/s", 12).bar(), col("CPU Tflop/s", 12).bar()];
    let mut t = out.table(None, cols);
    let (mut best_gpu, mut best_cpu) = ((0usize, 0.0f64), (0usize, 0.0f64));
    for nb in [64usize, 128, 192, 256, 320, 448, 640] {
        let rate = |imp| estimate_qdwh_time(&summit, 1, imp, n, nb, it_qr, it_chol).tflops;
        let (gpu, cpu) = (rate(Implementation::SlateGpu), rate(Implementation::SlateCpu));
        if gpu > best_gpu.1 {
            best_gpu = (nb, gpu);
        }
        if cpu > best_cpu.1 {
            best_cpu = (nb, cpu);
        }
        t.row([plain(nb), fixed(gpu, 2), fixed(cpu, 3)]);
    }
    out.line(format!(
        "# best GPU tile: nb = {} (paper: 320); best CPU tile: nb = {} (paper: 192)",
        best_gpu.0, best_cpu.0
    ));

    // kept small: the graph grows as (n/nb)^3
    out.line("\n# DES cross-check (n = 6400, 1 Summit node, GPU target):");
    let mut t =
        out.table(None, vec![col("nb", 5), col("makespan s", 10).bar(), col("tasks", 8).bar()]);
    for nb in [128usize, 320, 640] {
        let g = paper_profile_graph(6400 / nb, nb, 2);
        let cluster = ClusterModel::slate(summit.clone(), 1, ExecTarget::GpuAccelerated, nb);
        let s = simulate(&g, &cluster, SchedulingMode::TaskBased);
        t.row([plain(nb), fixed(s.makespan, 3), plain(s.tasks)]);
    }
    out.line("# note: at this reduced n the DES optimum shifts to smaller tiles —");
    out.line("# with few tiles per device, parallelism beats per-tile rate. The");
    out.line("# paper's nb = 320 is the large-n (paper-scale) optimum, as the");
    out.line("# analytic sweep above shows.");
}

/// ABL-SCHED: the whole-solve graph the solver emits under task-based and
/// fork-join scheduling (§3); fork-join may never win.
fn abl_sched(out: &mut Out) {
    out.section("ABL-SCHED");
    let summit = NodeSpec::summit();
    out.line("# ABL-SCHED: identical QDWH tile DAG under both scheduling modes");
    let mut t = out.table(
        None,
        vec![
            col("tiles", 6),
            col("nodes", 6),
            col("tasks", 7),
            col("task-based s", 12).bar(),
            col("fork-join s", 12),
            col("fj/tb", 8).bar(),
            col("eff(tb)", 7).bar(),
            col("eff(fj)", 7),
        ],
    );
    for (tiles, nodes) in [(12usize, 1usize), (16, 1), (24, 2), (32, 4)] {
        let ranks = nodes * summit.slate_ranks_per_node;
        let g = paper_profile_graph(tiles, 320, ranks);
        let cluster = ClusterModel::slate(summit.clone(), nodes, ExecTarget::CpuOnly, 320);
        let tb = simulate(&g, &cluster, SchedulingMode::TaskBased);
        let fj = simulate(&g, &cluster, SchedulingMode::ForkJoin);
        assert!(fj.makespan >= tb.makespan, "fork-join must not win");
        let slots: usize = (0..ranks).map(|r| cluster.slots(r)).sum();
        t.row([
            plain(tiles),
            plain(nodes),
            plain(g.len()),
            fixed(tb.makespan, 3),
            fixed(fj.makespan, 3),
            fixed(fj.makespan / tb.makespan, 2).unit("x"),
            fixed(100.0 * tb.efficiency(slots), 1).unit("%"),
            fixed(100.0 * fj.efficiency(slots), 1).unit("%"),
        ]);
    }
    out.line("# the fork-join penalty is the concurrency POLAR leaves on the table (§3).");
}

/// COMM: the tiles crossing ranks in the executed QDWH graph on 2D
/// block-cyclic grids (`qdwh_distributed`, `TaskGraph::comm`).
fn comm(out: &mut Out) {
    out.section("COMM");
    let (n, nb) = (64usize, 8usize);
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(n, 99));
    out.line(format!(
        "# COMM: metered traffic of the executed QDWH graph (n = {n}, nb = {nb}, f64)"
    ));
    let mut t = out.table(
        None,
        vec![
            col("grid", 7),
            col("tile tasks", 10).bar(),
            col("messages", 10),
            col("MB", 10),
            col("tiles / task", 12).bar(),
        ],
    );
    let tile_bytes = (8 * nb * nb) as f64;
    for (p, q) in [(1usize, 1usize), (1, 2), (2, 2), (2, 4), (4, 4)] {
        let cfg = DistConfig { grid: ProcessGrid::new(p, q), nb };
        let run = qdwh_distributed(&a, &QdwhOptions::default(), &cfg).expect("dist qdwh");
        let bytes = run.comm.point_to_point_bytes as f64;
        t.row([
            plain(format!("{p:>3}x{q:<3}")),
            plain(run.tile_tasks),
            plain(run.comm.point_to_point_messages),
            fixed(bytes / 1e6, 3),
            fixed(bytes / tile_bytes / run.tile_tasks as f64, 2),
        ]);
    }
    out.line("# one graph, five owner maps: the task count is fixed, the traffic grows");
    out.line("# with the grid, and one rank moves nothing.");
}

/// ABL-ZOLO (§8 future work): Zolo-PD's 2 iterations against QDWH's 6 at
/// kappa = 1e16, then the modeled node count from which its shorter
/// critical path beats QDWH's fewer flops.
fn abl_zolo(out: &mut Out) {
    out.section("ABL-ZOLO");
    out.line("# ABL-ZOLO part 1: numeric comparison at kappa = 1e16 (n = 96)");
    let (a, _) = generate::<f64>(&MatrixSpec::ill_conditioned(96, 8));
    let q = qdwh(&a, &QdwhOptions::default()).expect("qdwh");
    let zolo = QdwhOptions { terms: 8, ..Default::default() };
    let z = qdwh(&a, &zolo).expect("zolo");
    assert!(z.info.iterations <= 2 && q.info.iterations >= 5);
    let mut t = out.table(
        None,
        vec![
            Col { sep: "   ", left: true, ..col("method", 8) },
            col("iterations", 10),
            col("QRs", 8),
            col("orth err", 12),
            col("bwd err", 12),
            col("flops", 12),
        ],
    );
    // term QRs, of `[s_j R; 0; d_j I]`: one per term of every QR-based
    // iteration (each also factors X once, or reads the start's QR of it)
    for (method, pd, terms) in [("qdwh", &q, 1), ("zolo-pd", &z, zolo.terms)] {
        let qrs = terms * pd.info.qr_iterations;
        t.row([
            plain(method),
            plain(pd.info.iterations),
            plain(qrs),
            sci(orthogonality_error(&pd.u), 2),
            sci(pd.backward_error(&a), 2),
            sci(pd.info.flops_estimate, 3),
        ]);
    }

    out.line("\n# ABL-ZOLO part 2: modeled strong scaling (Summit GPU, n = 60k, r = 8)");
    let mut t = out.table(
        None,
        vec![
            Col { sep: "  ", ..col("nodes", 6) },
            col("QDWH s", 12).bar(),
            col("Zolo s", 12),
            col("winner", 8).bar(),
        ],
    );
    let node = NodeSpec::summit();
    let n = 60_000;
    let mut crossover: Option<usize> = None;
    for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
        let tq = model(&node, nodes, Implementation::SlateGpu, n).seconds;
        let tz = estimate_zolo_time(&node, nodes, n, 320, 8).seconds;
        if tz < tq && crossover.is_none() {
            crossover = Some(nodes);
        }
        t.row([
            plain(nodes),
            fixed(tq, 1),
            fixed(tz, 1),
            plain(if tz < tq { "zolo" } else { "qdwh" }),
        ]);
    }
    out.line(match crossover {
        Some(c) => format!("# crossover at ~{c} nodes: Zolo-PD becomes attractive in the strong-scaling regime (§8)."),
        None => "# no crossover in range — widen the sweep.".into(),
    });
}

/// The report: `all_figures.txt`'s text and the CSV mirrors, by name.
#[derive(Default)]
struct Out {
    text: String,
    csvs: Vec<(String, String)>,
}

impl Out {
    fn line(&mut self, line: impl Display) {
        self.text += &format!("{line}\n");
    }

    fn section(&mut self, id: &str) {
        self.line(format!("===== {id} ====="));
    }

    /// Write the header line of a table of `cols`; with `csv`, the columns
    /// that name a CSV field also go to `results/<csv>.csv`.
    fn table(&mut self, csv: Option<&str>, cols: Vec<Col>) -> Table<'_> {
        self.line(format!("#{}", layout(&cols, cols.iter().map(|c| c.head.as_str()))));
        let csv = csv.map(|name| {
            let header: Vec<_> = cols.iter().filter_map(|c| c.csv.as_deref()).collect();
            self.csvs.push((name.to_string(), header.join(",") + "\n"));
            self.csvs.len() - 1
        });
        Table { out: self, cols, csv }
    }
}

/// A table being written: each row goes once, to the text and, if the
/// table has one, to its CSV.
struct Table<'a> {
    out: &'a mut Out,
    cols: Vec<Col>,
    csv: Option<usize>,
}

impl Table<'_> {
    fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let cells: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        self.out.line(format!(" {}", layout(&self.cols, cells.iter().map(|c| c.text.as_str()))));
        if let Some(i) = self.csv {
            let fields: Vec<&str> = (self.cols.iter().zip(&cells))
                .filter(|(c, _)| c.csv.is_some())
                .map(|(_, cell)| cell.csv.as_str())
                .collect();
            self.out.csvs[i].1 += &(fields.join(",") + "\n");
        }
    }
}

/// One column: the separator before it, its title, its text width
/// (right-aligned unless `left`) and its CSV field name, if it has one.
struct Col {
    sep: &'static str,
    head: String,
    width: usize,
    left: bool,
    csv: Option<String>,
}

fn col(head: impl Into<String>, width: usize) -> Col {
    Col { sep: " ", head: head.into(), width, left: false, csv: None }
}

impl Col {
    /// Start a group of columns: ` | ` before this one.
    fn bar(self) -> Self {
        Col { sep: " | ", ..self }
    }

    fn csv(self, name: impl Into<String>) -> Self {
        Col { csv: Some(name.into()), ..self }
    }
}

/// `texts` padded to the widths of `cols`, each after its separator.
fn layout<'a>(cols: &[Col], texts: impl Iterator<Item = &'a str>) -> String {
    let mut line = String::new();
    for (c, text) in cols.iter().zip(texts) {
        let w = c.width;
        line += c.sep;
        line += &if c.left { format!("{text:<w$}") } else { format!("{text:>w$}") };
    }
    line
}

/// A table cell: its text and its CSV field (full precision).
struct Cell {
    text: String,
    csv: String,
}

/// `v` as it displays, in the text and the CSV alike.
fn plain(v: impl Display) -> Cell {
    let s = v.to_string();
    Cell { text: s.clone(), csv: s }
}

/// `v` to `digits` decimals in the text.
fn fixed(v: f64, digits: usize) -> Cell {
    Cell { text: format!("{v:.digits$}"), csv: v.to_string() }
}

/// `v` in scientific notation, `digits` decimals, in the text.
fn sci(v: f64, digits: usize) -> Cell {
    Cell { text: format!("{v:.digits$e}"), csv: v.to_string() }
}

impl Cell {
    /// `unit` after the text, not in the CSV field.
    fn unit(mut self, unit: &str) -> Self {
        self.text.push_str(unit);
        self
    }
}
