(** The bench gate: one verdict over every bench contract.

    The anchor block regenerates the calibrated anchors from the current
    build and diffs them against a committed [BENCH_sim.json] baseline:
    Table 3 transition cycles and Table 4 privop cycles must match
    {e exactly} (they are deterministic functions of simulator mechanics),
    while wall time and GC pressure are only bounded within a generous
    tolerance so the gate never flakes on a slow CI host. With
    [~fig9:true] the Fig. 9 overhead/rate columns are also compared at
    their reported precision (%.4f / %.2f).

    The gate also pins the isolation backend the anchors were calibrated
    under: the default {!Erebor.Isolation} install must still be PKS, and a
    machine with the backend forced to PKS must reproduce the default
    Table 3/4 anchors exactly (checks [backend/default],
    [backend/table3-pks/*], [backend/table4-pks/*]).

    {!gates} lists every other contract as a named entry: the
    sink-transparency law ({!transparent}), the flight recorder, fleet
    telemetry, isolation must-deny probes, live-SLO attribution and cycle
    attribution. [bench check] evaluates the whole list. *)

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

val check_json :
  ?fig9:bool ->
  ?jobs:int ->
  ?wall_tolerance:float ->
  ?gc_tolerance:float ->
  Json.t ->
  verdict
(** Run the gate against an already-parsed baseline. [wall_tolerance]
    (default 1.5) bounds the regeneration CPU time at that multiple of the
    baseline's [total_wall_s]; [gc_tolerance] (default 0.5) bounds minor
    and major allocation at that multiple of the baseline suite's
    [gc.minor_words] / [gc.major_words]. The budgets cover (a fraction of)
    a full suite while the gate regenerates only anchors, so they catch
    order-of-magnitude regressions without noise. *)

val check_string :
  ?fig9:bool ->
  ?jobs:int ->
  ?wall_tolerance:float ->
  ?gc_tolerance:float ->
  string ->
  (verdict, string) result
(** Parse [json] and run the gate; [Error] on malformed JSON. *)

val check_file :
  ?fig9:bool ->
  ?jobs:int ->
  ?wall_tolerance:float ->
  ?gc_tolerance:float ->
  path:string ->
  unit ->
  (verdict, string) result

val check_journal : journal:string -> Json.t -> verdict
(** Verify a flight recording ({!Obs.Journal}) written by
    [erebor-sim run --record] against an already-parsed baseline: the
    journal must be finalized, contain a complete Run span for the
    (workload, setting) named in its header, and the exit rates recomputed
    from the Run-span slice must match the baseline's Fig. 9 row for that
    pair at the reported %.2f precision. The rate math reproduces
    [Sim.Stats.diff] exactly, so an undisturbed recording matches to the
    last digit. *)

val check_journal_file :
  journal:string -> path:string -> unit -> (verdict, string) result
(** [check_journal] against the baseline JSON at [path] — the engine behind
    [bench check --from-journal FILE]. *)

val render_anchors : ?instrument:(Obs.Emitter.t -> unit) -> unit -> string
(** A minimal baseline document (schema + exact Table 3 / Table 4 anchors)
    regenerated from the current build. Tests use this to construct a
    passing baseline — and to seed a mismatch that must make the gate
    fail. [?instrument] is threaded to {!Eval.table3}/{!Eval.table4}; the
    rendered document must be byte-identical with or without sinks
    attached (observability never advances the virtual clock). *)

(** {2 Shared contracts} *)

val zero_alloc : string -> per:string -> n:int -> (int -> unit) -> check
(** [zero_alloc name ~per ~n f] runs [f 0] .. [f (n - 1)] and passes iff
    they allocate exactly 0 minor words; the boxing cost of
    [Gc.minor_words] itself is calibrated out. Warm [f]'s state up first:
    the check is about the steady state. [per] names one call in the
    report ("event", "record"). *)

val sinks : (string * (Obs.Emitter.t -> unit)) list
(** Every passive sink lib/obs offers, by name, each attaching a fresh
    instance to the emitter it is given: counter, ring, attrib, chrome,
    histogram, live (window + SLO + health watchdog + dashboard), journal
    (an unlinked temp file), sketches, agg (an aggregator part) and audit
    (a chain on the emitter's audit rail). *)

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
    over all {!sinks}), [journal] (replay, zero-alloc record path,
    self-diff and seeded-regression diff, [--from-journal] rates),
    [agg] (quantile accuracy, merge/jobs invariance, spike attribution,
    zero-alloc record path), [density] (must-deny probes), [slo]
    (seeded-stall attribution, clean runs silent) and [attrib] (cycle
    conservation). [smoke] picks the quick cut @ci runs; [smoke:false]
    is full scale. [jobs] is the domain-pool width for machine fan-out. *)
