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

let probes_per_search =
  Obs.Registry.histogram "fptree_probes_per_leaf_search"
    ~help:"in-leaf key probes per leaf search (Fig. 4: ~1 with fingerprints)"

let fp_false_positives =
  Obs.Registry.counter "fptree_fp_false_positives_total"
    ~help:"key probes caused by fingerprint byte collisions"

let split_us =
  Obs.Registry.histogram "fptree_split_us"
    ~help:"leaf split duration, microseconds (copy + median + commit)"

let find_retries =
  Obs.Registry.histogram "fptree_find_retries"
    ~help:"speculative (seqlock) aborts before a find committed"

let quarantined_leaves =
  Obs.Registry.counter "fptree_quarantined_leaves_total"
    ~help:"leaves quarantined by recovery checksum validation"

let space_refused =
  Obs.Registry.counter "fptree_space_refused_total"
    ~help:"operations refused with Out_of_space (watermark or exhaustion)"

let recovery_phase name what =
  Obs.Registry.histogram
    (Printf.sprintf "fptree_recovery_%s_us" name)
    ~help:(Printf.sprintf "recovery %s phase duration, microseconds" what)

let recovery_init_us = recovery_phase "init" "first-open initialisation"
let recovery_log_replay_us = recovery_phase "log_replay" "micro-log replay"
let recovery_quarantine_us =
  recovery_phase "quarantine" "checksum quarantine"
let recovery_rebuild_us = recovery_phase "rebuild" "DRAM inner-node rebuild"
