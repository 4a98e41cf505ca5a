(** Per-kind event counts and argument sums: a view over the emitter's
    built-in tallies, not a sink.

    This is the single source of truth for every statistic the simulator
    reports — [Sim.Stats.snapshot] is derived from one of these. Attaching
    a counter costs the emitter nothing per event: the emitter counts every
    emission itself ({!Emitter.count}), and the counter keeps a base
    snapshot taken at {!attach} and at {!reset}, so it reports exactly the
    events emitted since then. A counter attached to several emitters
    reports their sum. *)

type t

val create : unit -> t
(** A counter attached to nothing: every read is 0. *)

val attach : Emitter.t -> t -> t
(** Start counting [emitter]'s events from now; returns [t] for chaining. *)

val count : t -> Trace.kind -> int
val arg_sum : t -> Trace.kind -> int
(** Sum of the event arguments for a kind — for kinds whose arg is a cycle
    measurement ([Emc_entry], [Emc _], [Tdcall]) this is total attributed
    cycles; for channel kinds it is total payload bytes. *)

val total : t -> int

val reset : t -> unit
(** Count from zero again: re-take the base snapshot of every attached
    emitter. Other counters over the same emitters are unaffected. *)
