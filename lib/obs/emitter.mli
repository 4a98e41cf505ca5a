(** The event bus: counts every emitted event and routes it to the sinks
    subscribed to its kind.

    The emitter keeps per-kind event counts and argument sums itself, so
    {!Counter} is a view over them rather than a sink: one {!emit} computes
    [Trace.index] once, bumps two array slots, and calls only the sinks
    that subscribed to that kind ({!attach}'s [?kinds]). With no sink
    listening to a kind, emitting it is the index computation and the two
    bumps. Emission NEVER advances the virtual clock — observability is
    free in simulated time, which is what keeps the calibrated tables
    byte-identical with tracing on or off.

    Two side rails ride along with the int-arg bus: an optional {!Audit}
    chain for structured security decisions ({!audit_event}), and a
    finalizer registry ({!add_finalizer}/{!finalize}) so sinks with buffered
    state get flushed even on abnormal exit. *)

type sink = Trace.kind -> ts:int -> arg:int -> unit

type t

val create : unit -> t

val attach : ?kinds:Trace.kind list -> t -> sink -> unit
(** Subscribe [sink] to the kinds in [kinds] (default: every kind). A sink
    receives exactly the events of its kinds, once each, in emission order;
    sinks subscribed to one kind are called in attach order. *)

val emit : t -> Trace.kind -> ts:int -> arg:int -> unit

val count : t -> Trace.kind -> int
(** Events of this kind emitted since {!create}. *)

val arg_sum : t -> Trace.kind -> int
(** Sum of those events' arguments. *)

(** {2 Audit rail} *)

val set_audit : t -> Audit.t option -> unit
(** Attach (or detach) the audit chain decisions are appended to. *)

val audit : t -> Audit.t option

val audit_event : t -> ts:int -> category:string -> verdict:Audit.verdict ->
  (unit -> string) -> unit
(** Append a decision record if an audit chain is attached. The detail
    thunk only runs when one is, keeping un-audited runs allocation-free. *)

(** {2 Finalizers} *)

val add_finalizer : t -> (now:int -> unit) -> unit
(** Register a flush/close hook, run in registration order by
    {!finalize}. *)

val finalize : t -> now:int -> unit
(** Run all registered finalizers and finalize the attached audit chain (if
    any). Idempotent: only the first call runs anything, so both the normal
    exit path and an exception handler may call it. *)

val finalized : t -> bool
