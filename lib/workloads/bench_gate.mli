(** The bench gate: one verdict over every bench contract.

    The anchor block regenerates the calibrated anchors from the current
    build and diffs them against a committed [BENCH_sim.json] baseline:
    Table 3 transition cycles and Table 4 privop cycles must match
    {e exactly} (they are deterministic functions of simulator mechanics).
    Host allocation is gated separately by the allocation ledger
    ({!ledger_checks}): serial words per [bench all] target, which are as
    deterministic as the anchors, against the baseline's recorded words.
    CPU time is only bounded within a generous tolerance (check [wall]:
    anchor regeneration within 1.5x the baseline's [total_wall_s]), so the
    gate never flakes on a slow CI host. With
    [~fig9:true] the Fig. 9 overhead/rate columns are also compared at
    their reported precision (%.4f / %.2f).

    The gate also pins the isolation backend the anchors were calibrated
    under: the default {!Erebor.Isolation} install must still be PKS, and a
    machine with the backend forced to PKS must reproduce the default
    Table 3/4 anchors exactly (checks [backend/default],
    [backend/table3-pks/*], [backend/table4-pks/*]).

    {!gates} lists every other contract as a named entry: the
    sink-transparency law ({!transparent}), the flight recorder, isolation
    must-deny probes and cycle attribution. [bench check] evaluates the
    whole list. *)

(** Dependency-free JSON subset used to read the baseline. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Parse a complete JSON document; [Error] carries a message with the
      byte offset of the failure. *)

  val member : string -> t -> t option
end

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

val schema : string
(** ["erebor-bench-sim/2"]: the run-record schema [bench all] writes and
    the gate requires of its baseline. *)

val check_string : string -> (verdict, string) result
(** Parse [json] and run the anchor gate against it (no Fig. 9 rows);
    [Error] on malformed JSON. *)

val check_journal_file :
  journal:string -> path:string -> unit -> (verdict, string) result
(** Verify a flight recording ({!Obs.Journal}) written by
    [erebor-sim run --record] against the baseline JSON at [path] — the
    engine behind [bench check --from-journal FILE]: the journal must be
    finalized, contain a complete Run span for the (workload, setting)
    named in its header, and the exit rates recomputed from the Run-span
    slice must match the baseline's Fig. 9 row for that pair at the
    reported %.2f precision. The rate math reproduces [Sim.Stats.diff]
    exactly, so an undisturbed recording matches to the last digit. *)

(** {2 The allocation ledger} *)

type target_cost = {
  target : string;  (** A [bench all] target name, as in the baseline. *)
  wall_s : float;   (** Printed next to the words, never judged. *)
  minor_words : float;
  major_words : float;  (** Including [promoted_words], as in [Gc.stat]. *)
  promoted_words : float;
}
(** One target's serial run, on the only domain allocating. *)

val ledger_checks : profile:string -> Json.t -> target_cost list -> verdict
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

val ledger_diff : Json.t -> Json.t -> verdict
(** [ledger_diff a b]: {!ledger_checks} with record [a] as the baseline and
    the serial per-target words of record [b] (both written by
    [bench all --jobs 1]) as the costs, under [b]'s profile — the verdict
    [b]'s build would get if [a]'s ledger were the committed one. A [b]
    without per-target minor, major and promoted words (schema
    [erebor-bench-sim/2]) or without a profile yields one failing
    [ledger] check. *)

val render_anchors : ?instrument:(Obs.Emitter.t -> unit) -> unit -> string
(** A minimal baseline document (schema + exact Table 3 / Table 4 anchors)
    regenerated from the current build. Tests use this to construct a
    passing baseline — and to seed a mismatch that must make the gate
    fail. [?instrument] is threaded to {!Eval.table3}/{!Eval.table4}; the
    rendered document must be byte-identical with or without sinks
    attached (observability never advances the virtual clock). *)

(** {2 Shared contracts} *)

val sinks : (string * (Obs.Emitter.t -> unit)) list
(** Every passive sink lib/obs offers, by name, each attaching a fresh
    instance to the emitter it is given: counter, ring, attrib, chrome,
    histogram, window (a sliding-window sink), journal (an unlinked temp
    file), sketches, audit (a chain on the emitter's audit rail) and
    routed (a callback subscribed to a kind subset through
    [Emitter.attach ~kinds]). *)

val emit_mix : Obs.Trace.kind array
(** Every kind, {!Obs.Trace.all} order: the mix [law/emit-zero-alloc] and
    [bench bechamel]'s [obs-emit-bare-1k] row emit. *)

val bare_emitter : unit -> Obs.Emitter.t
(** A fresh erebor machine's emitter: built-in counts and no sink. *)

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
    over all {!sinks}, plus [law/emit-zero-alloc]: 10k mixed emissions on
    a fresh erebor machine's emitter allocate nothing, and
    [drbg/zero-alloc]: 100k mixed warm [Crypto.Drbg] draws allocate
    nothing), [journal] (replay, zero-alloc record path, self-diff and
    seeded-regression diff, [--from-journal] rates), [density] (must-deny
    probes) and [attrib] (cycle conservation). [smoke] picks the quick
    cut @ci runs; [smoke:false] is full scale. [jobs] is the domain-pool width for machine fan-out. *)
