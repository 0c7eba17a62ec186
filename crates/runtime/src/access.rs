//! A task names its tiles once: the value that declares a task's read and
//! write sets is the value its body receives the tiles from.
//!
//! SLATE states a task's data once — the object in an OpenMP
//! `depend(inout: A(i, j))` clause *is* the tile the body touches.
//! [`Access`] is that clause as a type: [`TaskDag::add_on`] collects the
//! task's [`TileRef`]s from [`Access::declare`] and runs the body on what
//! [`Access::get`] returns, so the set a body can touch is the set it
//! declared. `get` takes an [`InBody`], which only `add_on` makes, inside
//! the running body — after it refused a task whose own accesses would
//! alias and the executor ordered the task behind every conflicting one.
//! An implementor that turns a raw pointer into a reference in `get`
//! relies on exactly that. What `get` returns borrows from the token, so
//! it cannot outlive the body.
//!
//! Accesses compose: a tuple declares and resolves its members in order (so
//! the first write named is the task's home tile), `Option<A>` is a tile
//! that is there or not, `Vec<A>` a set whose length is known at emit time.

use crate::exec::{TaskDag, TaskStatus};
use crate::graph::{KernelKind, TaskId, TileRef};

/// Proof of being inside a task body of a dag that was given the access
/// being resolved. Not constructible outside this module.
pub struct InBody(());

/// Something a task reads or writes, named for dependency inference and
/// resolved inside the body. See the module docs.
pub trait Access {
    /// What the body receives; `'t` is the body's own extent.
    type Out<'t>;

    /// Append the names of what this access reads and writes, in order.
    fn declare(&self, reads: &mut Vec<TileRef>, writes: &mut Vec<TileRef>);

    /// The declared data itself.
    fn get<'t>(self, body: &'t InBody) -> Self::Out<'t>;
}

impl<A: Access> Access for Option<A> {
    type Out<'t> = Option<A::Out<'t>>;

    fn declare(&self, reads: &mut Vec<TileRef>, writes: &mut Vec<TileRef>) {
        if let Some(a) = self {
            a.declare(reads, writes);
        }
    }

    fn get<'t>(self, body: &'t InBody) -> Self::Out<'t> {
        self.map(|a| a.get(body))
    }
}

impl<A: Access> Access for Vec<A> {
    type Out<'t> = Vec<A::Out<'t>>;

    fn declare(&self, reads: &mut Vec<TileRef>, writes: &mut Vec<TileRef>) {
        for a in self {
            a.declare(reads, writes);
        }
    }

    fn get<'t>(self, body: &'t InBody) -> Self::Out<'t> {
        self.into_iter().map(|a| a.get(body)).collect()
    }
}

macro_rules! tuple_access {
    ($($A:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($A: Access),+> Access for ($($A,)+) {
            type Out<'t> = ($($A::Out<'t>,)+);

            fn declare(&self, reads: &mut Vec<TileRef>, writes: &mut Vec<TileRef>) {
                let ($($A,)+) = self;
                $($A.declare(reads, writes);)+
            }

            fn get<'t>(self, body: &'t InBody) -> Self::Out<'t> {
                let ($($A,)+) = self;
                ($($A.get(body),)+)
            }
        }
    };
}
tuple_access!(A B);
tuple_access!(A B C);
tuple_access!(A B C D);

/// The one way a task's own accesses could alias: a tile it writes named a
/// second time, as a write (two `&mut`) or as a read (`&mut` beside `&`).
/// Reads may repeat. Memory safety of the pointer-backed accesses rests on
/// this, so it is checked in every build; the sets are a handful of names.
fn assert_disjoint(reads: &[TileRef], writes: &[TileRef]) {
    for (n, w) in writes.iter().enumerate() {
        let again = writes[..n].iter().chain(reads).any(|o| o.key() == w.key());
        assert!(!again, "task writes tile {:?} and names it a second time", w.key());
    }
}

impl From<()> for TaskStatus {
    /// A body that returns nothing keeps the graph going.
    fn from((): ()) -> Self {
        TaskStatus::Continue
    }
}

impl<'a> TaskDag<'a> {
    /// Append a task on the data `access` names: its read and write sets
    /// are what `access` declares, and `body` receives what `access`
    /// resolves to — the typed front of [`TaskDag::add_task`], which this
    /// calls (`kind`, `priority` and `flops` as there). A body returns `()`
    /// or, to cancel the graph, a [`TaskStatus`].
    ///
    /// Panics if `access` names a tile it writes a second time.
    pub fn add_on<A, R, F>(
        &mut self,
        kind: KernelKind,
        priority: i32,
        flops: f64,
        access: A,
        body: F,
    ) -> TaskId
    where
        A: Access + Send + 'a,
        R: Into<TaskStatus>,
        F: for<'t> FnOnce(A::Out<'t>) -> R + Send + 'a,
    {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        access.declare(&mut reads, &mut writes);
        assert_disjoint(&reads, &writes);
        self.add_task(kind, priority, flops, reads, writes, move || {
            body(access.get(&InBody(()))).into()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecOutcome;
    use polar_matrix::ProcessGrid;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A tile-shaped cell: reading resolves to its value, writing to the
    /// cell. Safe — which is the point: the trait asks for no `unsafe fn`.
    #[derive(Clone, Copy)]
    struct Cell<'a> {
        at: &'a AtomicU64,
        name: TileRef,
        write: bool,
    }

    impl<'a> Access for Cell<'a> {
        type Out<'t> = &'a AtomicU64;

        fn declare(&self, reads: &mut Vec<TileRef>, writes: &mut Vec<TileRef>) {
            if self.write { writes } else { reads }.push(self.name);
        }

        fn get(self, _: &InBody) -> &'a AtomicU64 {
            self.at
        }
    }

    struct Cells {
        slots: Vec<AtomicU64>,
    }

    impl Cells {
        fn new(n: usize) -> Self {
            Self { slots: (0..n).map(|_| AtomicU64::new(0)).collect() }
        }
        fn read(&self, i: usize, j: usize) -> Cell<'_> {
            Cell { at: &self.slots[i], name: TileRef::new(0, i, j, 8), write: false }
        }
        fn write(&self, i: usize, j: usize) -> Cell<'_> {
            Cell { write: true, ..self.read(i, j) }
        }
    }

    #[test]
    fn composite_accesses_declare_in_order_and_resolve_to_what_they_declared() {
        let cells = Cells::new(6);
        let mut dag = TaskDag::new();
        dag.new_matrix();
        dag.add_on(KernelKind::Geadd, 0, 1.0, cells.write(1, 0), |c| {
            c.store(7, Ordering::Relaxed);
        });
        // an optional read that is there, one that is not, and a set
        let third = false;
        let access = (
            cells.write(3, 2),
            Some(cells.read(1, 0)),
            third.then(|| cells.read(5, 0)),
            vec![(cells.read(2, 0), cells.write(0, 2)), (cells.read(4, 0), cells.write(4, 4))],
        );
        dag.add_on(KernelKind::Tsmqr, 0, 1.0, access, |(home, one, none, pairs)| {
            assert!(none.is_none());
            home.store(one.expect("declared").load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            for (r, w) in pairs {
                w.store(r.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
        });
        let mut graph = dag.into_graph();
        let names = |set: &[TileRef]| set.iter().map(|t| (t.i, t.j)).collect::<Vec<_>>();
        assert_eq!(names(&graph.tasks[1].reads), [(1, 0), (2, 0), (4, 0)]);
        assert_eq!(names(&graph.tasks[1].writes), [(3, 2), (0, 2), (4, 4)]);
        assert_eq!(graph.preds(1), &[0]);
        // the first write named is the home tile the task is placed on
        graph.assign_ranks(ProcessGrid::new(2, 2));
        assert_eq!(graph.tasks[1].rank, ProcessGrid::new(2, 2).rank_of(1, 0));
    }

    #[test]
    fn bodies_run_on_the_declared_data_and_may_cancel() {
        let cells = Cells::new(3);
        let mut dag = TaskDag::new();
        dag.new_matrix();
        dag.add_on(KernelKind::Geadd, 0, 1.0, cells.write(0, 0), |c| {
            c.store(41, Ordering::Relaxed);
        });
        dag.add_on(KernelKind::Potrf, 0, 1.0, (cells.read(0, 0), cells.write(1, 0)), |(r, w)| {
            w.store(r.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            TaskStatus::Cancel
        });
        dag.add_on(KernelKind::Geadd, 0, 1.0, (cells.read(1, 0), cells.write(2, 0)), |(_, w)| {
            w.store(1, Ordering::Relaxed);
        });
        assert_eq!(dag.execute(), ExecOutcome::Cancelled);
        let got: Vec<u64> = cells.slots.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(got, [41, 42, 0]);
    }

    #[test]
    #[should_panic(expected = "writes tile (0, 1, 2) and names it a second time")]
    fn a_tile_named_twice_in_the_write_set_is_refused_at_emit_time() {
        let cells = Cells::new(2);
        let mut dag = TaskDag::new();
        dag.add_on(KernelKind::Gemm, 0, 1.0, (cells.write(1, 2), cells.write(1, 2)), |_| {});
    }

    #[test]
    #[should_panic(expected = "writes tile (0, 1, 2) and names it a second time")]
    fn a_tile_named_in_both_sets_is_refused_at_emit_time() {
        let cells = Cells::new(2);
        let mut dag = TaskDag::new();
        let access = (cells.write(0, 0), vec![cells.read(1, 2)], Some(cells.write(1, 2)));
        dag.add_on(KernelKind::Gemm, 0, 1.0, access, |_| {});
    }

    #[test]
    fn a_tile_may_be_read_twice() {
        let cells = Cells::new(2);
        let mut dag = TaskDag::new();
        dag.add_on(KernelKind::Gemm, 0, 1.0, (cells.read(1, 0), cells.read(1, 0)), |_| {});
        assert_eq!(dag.len(), 1);
    }
}
