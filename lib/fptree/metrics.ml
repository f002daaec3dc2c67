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
