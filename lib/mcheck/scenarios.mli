(** Scenario catalog for the model checker: small concurrent
    workloads over a real FPTree, each checked against a sequential
    oracle (linearizability of the recorded per-thread operations,
    structural invariants, exact abort accounting).

    Scenario state is rebuilt from scratch for every execution so that
    replayed schedules are deterministic: fresh arena, fresh tree,
    reset inner-node ids. *)

val catalog : Dpor.scenario list
(** The protocol scenarios, in checking order: find vs leaf split,
    two inserts into one leaf, a three-thread find/insert/delete mix,
    range vs whole-leaf delete, range vs a split of the leaf holding
    its upper bound, range vs a delete and an insert that refills the
    freed slot, range vs a split and a removal under the parent it
    steps through, fallback-path contention (retry
    threshold 1), find vs root split, and recovery followed by
    concurrent ops. *)

val find : string -> Dpor.scenario option
(** Look up a catalog scenario by name. *)

val find_vs_split : Dpor.scenario
val find_vs_root_split : Dpor.scenario

val with_regression_hole : (unit -> 'a) -> 'a
(** Run [f] with the PR 5 root-pointer validation hole re-opened
    ({!Fptree.Inner.regression_root_ver_hole}): the regression mode
    proving the checker finds the seeded bug.  Always disarms the
    hole on exit. *)
