(** Declarative service-level objectives with error budgets and multi-window
    burn-rate alerts, evaluated over a {!Window}.

    Burn rate is how fast the error budget is being consumed: 1.0 is
    exactly on budget, N would exhaust it N times over. Following the SRE
    multi-window pattern, an alert fires only when {e both} the fast window
    (recent buckets) and the slow window (long horizon) burn at or above
    10x; it clears with hysteresis, after both burns stay below 1x for 3
    consecutive {!evaluate} calls. With the
    window's bucket width set to one virtual minute, the defaults
    ([fast_windows = 5], [slow_windows = 60]) give the canonical
    5-minute/1-hour pair; shorter buckets scale both spans down together.

    Evaluation never advances the virtual clock. Each transition emits a
    {!Trace.Slo_alert} event ([arg = objective index lsl 1 lor fired]) and
    an audit record (category ["slo"], [Deny] on fire / [Info] on clear)
    when the emitter has a chain attached. *)

type condition =
  | Latency_above of { kind : Trace.kind; threshold : int }
      (** Bad = samples of [kind] whose arg exceeds [threshold] (needs the
          kind histogram-tracked in the window); total = all samples. *)
  | Ratio of { bad : Trace.kind; total : Trace.kind }
      (** Bad fraction = count of [bad] / count of [total]. *)
  | Rate_above of { kind : Trace.kind; per_second : float }
      (** Burn = observed per-second rate / ([per_second] ceiling x budget);
          use [budget = 1.0] for a plain ceiling. *)

type objective = {
  name : string;
  tenant : string option;
  condition : condition;
  budget : float;  (** Allowed bad fraction (e.g. 0.02 = 2% error budget). *)
}

val objective :
  ?tenant:string ->
  name:string ->
  condition:condition ->
  budget:float ->
  unit ->
  objective
(** Raises [Invalid_argument] when [budget <= 0]. *)

type status = {
  objective : objective;
  fast_burn : float;
  slow_burn : float;
  firing : bool;
  since : int;  (** ts of the last fire/clear transition. *)
}

type t

val create :
  ?emit:Emitter.t ->
  ?fast_windows:int ->
  ?slow_windows:int ->
  window:Window.t ->
  objectives:objective list ->
  unit ->
  t
(** [emit] receives alert-transition events (and audit records when it has
    a chain). Defaults: [fast_windows = 5], [slow_windows = 60]. *)

val window : t -> Window.t

val evaluate : t -> now:int -> unit
(** Rotate the window to [now], recompute every objective's fast/slow burn
    and apply the fire/clear state machine. Call at a steady cadence (every
    round, every dashboard refresh). *)

val statuses : t -> status list
val firing : t -> status list

val transitions : t -> (int * objective * bool) list
(** Chronological [(ts, objective, fired)] alert transitions. *)

val fired_ever : t -> name:string -> bool
(** Whether the named objective ever fired during this run. *)

val evals : t -> int
val to_json : t -> string
