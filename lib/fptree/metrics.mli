(** Tree-level metrics, registered once per process and shared by all
    tree instantiations ({!Fixed}, {!Var}, the {!Ptree} configs) — the
    registry aggregates over instances, like any process-wide metric
    endpoint.

    All of these except the recovery-phase histograms are recorded
    only on the instrumented path (the simulator's [stats] switch), so
    the fast-mode hot paths stay allocation-free.  Recovery is a cold
    path: its phases are timed on every recovery.

    Paper mapping: [fptree_probes_per_leaf_search] is Figure 4 (the
    fingerprinting claim: ~1 key probe per in-leaf search);
    [fptree_fp_false_positives_total] is its complement (probes that a
    perfect fingerprint would have avoided); [fptree_split_us] prices
    the split path (median selection + copy + bitmap commits);
    [fptree_find_retries] is the seqlock (HTM-emulation) retry
    behaviour of Appendix B; [fptree_recovery_*_us] time the recovery
    phases (Figure 11), which are also emitted as [fptree.recovery.*]
    flight-recorder spans while [Obs.Gate] is on. *)

val probes_per_search : Obs.Histogram.t
(** [fptree_probes_per_leaf_search]: Figure 4, ~1 with fingerprints. *)

val fp_false_positives : Obs.Counter.t
(** Key probes a perfect fingerprint would have avoided. *)

val split_us : Obs.Histogram.t
val find_retries : Obs.Histogram.t
val quarantined_leaves : Obs.Counter.t
val space_refused : Obs.Counter.t

(** {1 Recovery phases (Figure 11)} *)

val recovery_init_us : Obs.Histogram.t
val recovery_log_replay_us : Obs.Histogram.t
val recovery_quarantine_us : Obs.Histogram.t
val recovery_rebuild_us : Obs.Histogram.t
