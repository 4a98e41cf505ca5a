(** The bench gate: one verdict over every bench contract, and the run
    record it reads.

    The anchor block regenerates the calibrated anchors from the current
    build and diffs them against a committed [BENCH_sim.json] baseline:
    Table 3 transition cycles and Table 4 privop cycles must match
    {e exactly} (they are deterministic functions of simulator mechanics),
    and with Fig. 9 rows given, their overhead/rate columns must match at
    the precision {!record} writes them (%.4f / %.2f). Each family ends in
    a [*/coverage] check: every regenerated row has a baseline row. Host
    allocation is gated separately by the allocation ledger
    ({!ledger_checks}): serial words per [bench all] target, which are as
    deterministic as the anchors, against the baseline's recorded words.
    CPU time is only bounded within a generous tolerance (check [wall]:
    anchor regeneration within 1.5x the baseline's [total_wall_s]), so the
    gate never flakes on a slow CI host.

    The gate also pins the isolation backend the anchors were calibrated
    under: the default {!Erebor.Isolation} install must still be PKS, and a
    machine with the backend forced to PKS must reproduce the default
    Table 3/4 anchors exactly (checks [backend/default],
    [backend/table3-pks/*], [backend/table4-pks/*]).

    {!gates} lists every other contract as a named entry: the
    sink-transparency law ({!transparent}), the zero-alloc table, the
    flight recorder, isolation must-deny probes and cycle attribution.
    [bench check] evaluates the whole list. Nothing under perf/ names this
    module, so none of it links into the host benchmark. *)

type check = {
  name : string;
  ok : bool;
  detail : string;
  old_value : string option;
      (** The baseline ("old") side of the comparison, rendered at the
          precision the gate compared at; [None] when the check has no
          comparable pair (parse errors, coverage gaps). *)
  new_value : string option;  (** The regenerated ("new") side. *)
}
(** One comparison: a stable dotted name ([table3/EMC.cycles], [wall], ...),
    whether it held, a human-readable detail line, and — when the check
    compares two values — the old/new pair for tabular rendering. *)

type verdict = check list

val chk :
  ?old_value:string -> ?new_value:string -> string -> bool -> string -> check
(** [chk name ok detail] builds a check; the old/new pair is optional. *)

val pass : verdict -> bool
val failures : verdict -> check list
val pp_verdict : Format.formatter -> verdict -> unit

val pp_mismatch_table : Format.formatter -> verdict -> unit
(** Render {e every} failing check of [verdict] as a unified old/new table
    (baseline value vs regenerated value), so one run shows the complete
    set of drifted anchors. Prints nothing when the verdict passes. *)

(** {2 The run record} *)

type target_cost = {
  target : string;  (** A [bench all] target name, as in the baseline. *)
  wall_s : float;   (** Printed next to the words, never judged. *)
  minor_words : float;
  major_words : float;  (** Including [promoted_words], as in [Gc.stat]. *)
  promoted_words : float;
}
(** One target's serial run, on the only domain allocating. *)

type host = {
  profile : string;
  jobs : int;  (** Per-target words are written only when 1: serial. *)
  scale : float;
  total_wall_s : float;
  peak_rss_kb : int option;
  gc : Gc.stat;
  costs : target_cost list;
}
(** The host-measured half of a [bench all] record. *)

val record :
  host option ->
  table3:Eval.transition_row list ->
  table4:Eval.privop_row list ->
  fig9:Eval.program_row list ->
  string
(** The run record, schema ["erebor-bench-sim/2"]: the host half when
    given, the Table 3/4 rows and the Fig. 9 rows (omitted when empty),
    each field written the way the gate reads it back. [bench all] writes
    it to [BENCH_sim.new.json]; with [None] and no Fig. 9 rows it is the
    anchor document of the transparency law and the tests. *)

(** {2 The checks} *)

val read_baseline : string -> (Bench_gate.Json.t, string) result
(** Read and parse the record at a path; an [Error] names the path. *)

val check_string :
  fig9:Eval.program_row list option -> string -> (verdict, string) result
(** Parse [json] and run the anchor gate against it, with the Fig. 9 rows
    compared against [fig9]'s when given; [Error] on malformed JSON. *)

val check_journal_file :
  journal:string -> path:string -> unit -> (verdict, string) result
(** [bench check --from-journal FILE]: a recording made by
    [erebor-sim run --record] must be finalized, hold a complete Run span
    for the (workload, setting) in its header, and the exit rates of that
    slice, computed as [Sim.Stats.diff] does, must match the baseline's
    Fig. 9 row at the precision {!record} writes them. *)

val ledger_checks :
  profile:string -> Bench_gate.Json.t -> target_cost list -> verdict
(** [ledger_checks ~profile baseline costs]: [ledger/profile] (the baseline
    was recorded under the build profile [profile]) and, per cost,
    [ledger/TARGET.minor_words] and [ledger/TARGET.direct_major_words]
    ([major_words - promoted_words]) against the baseline's [targets] row.
    Both counts are exact functions of the code a target runs, and both
    are judged exactly: a count above its baseline fails as a regression,
    one below fails with a re-baseline message, so every allocation change
    shows in the [BENCH_sim.json] diff of the change that makes it.
    Promoted words are recorded but not judged: they move by a few percent
    with the heap state a target starts from. *)

val ledger_diff : Bench_gate.Json.t -> Bench_gate.Json.t -> verdict
(** [ledger_diff a b]: {!ledger_checks} with record [a] as the baseline
    and record [b]'s serial [targets] rows, read by the same decoder, as
    the costs, under [b]'s profile. A [b] without serial words or without
    a profile yields one failing [ledger] check. *)

val sinks : (string * (Obs.Emitter.t -> unit)) list
(** Every passive sink lib/obs offers, by name, each attaching a fresh
    instance to the emitter it is given: counter, ring, attrib, chrome,
    histogram, window (a sliding-window sink), journal (an unlinked temp
    file), sketches, audit (a chain on the emitter's audit rail) and
    routed (a callback subscribed to a kind subset through
    [Emitter.attach ~kinds]). *)

val transparent : (Obs.Emitter.t -> unit) -> check list
(** The sink-transparency law: with [instrument] applied to every machine's
    emitter before it boots, the Table 3/4 anchor document must be
    byte-identical, and a Fig. 9 cell (drugbank under full Erebor) must
    report the same [init_cycles], [run_cycles] and {!Sim.Stats.snapshot}
    as the bare run. Checks [law/anchors-identical],
    [law/fig9-init-cycles], [law/fig9-run-cycles], [law/fig9-stats]. *)

(** {2 The gate} *)

val gates :
  baseline:string ->
  jobs:int option ->
  (string * (smoke:bool -> check list)) list
(** Every gate entry, in report order: [anchors] (vs the baseline at
    [baseline]; Fig. 9 rows too unless [smoke]), [law] ({!transparent}
    over all {!sinks}, then the zero-alloc table: one row per named spec,
    each measured warm by one runner against its word budget, some also
    per extra page — [law/emit-zero-alloc], [drbg/zero-alloc],
    [law/privops-zero-alloc/*], [law/step-zero-alloc/*],
    [law/kernel-zero-alloc/*] and [journal/zero-alloc]), [journal]
    (replay, self-diff and seeded-regression diff, [--from-journal]
    rates), [density] (must-deny probes) and [attrib] (cycle
    conservation). [smoke] picks the quick cut @ci runs; [smoke:false] is
    full scale. [jobs] is the domain-pool width for machine fan-out. *)
