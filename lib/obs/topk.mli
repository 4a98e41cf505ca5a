(** Space-saving heavy-hitter summary with guaranteed count-error bounds
    and an order-invariant mergeable sealed form — used by the fleet
    aggregator keyed by (tenant x kind) to answer "who dominates the
    fleet". *)

type t
(** Live per-machine structure: at most [capacity] keyed counters. *)

val create : ?capacity:int -> unit -> t
(** Default capacity 64. Raises [Invalid_argument] below 1. *)

val capacity : t -> int

val size : t -> int
(** Number of keys currently tracked. *)

val observe : t -> key:string -> weight:int -> unit
(** Add [weight] occurrences of [key]. Allocation-free when [key] is
    already tracked (the expected steady state — callers pass interned
    key strings). When the table is full, the minimum-count entry is
    evicted (smallest key on count ties, so eviction is deterministic)
    and [key] inherits its count as a recorded possible overcount.
    Raises [Invalid_argument] on negative weight. *)

val count : t -> key:string -> int
(** Recorded count for [key] (0 if untracked). True count for a tracked
    key lies in [[count - err, count]]; for an untracked key it is at
    most {!floor}. *)

val floor : t -> int
(** Upper bound on the true count of any key {e not} tracked: 0 while
    the table has free slots, otherwise the minimum tracked count. *)

(** {2 Sealed summaries — the mergeable form} *)

type summary

val empty_summary : summary

val seal : t -> summary
(** Snapshot the live structure into a mergeable summary. The live
    structure is left untouched. *)

val merge_summaries : summary -> summary -> summary
(** Key-wise pointwise sum (counts, error bounds, floors) over the
    sorted key union — exactly associative and commutative, so the
    merged summary is structurally equal ([=]) for any
    merge order or grouping of the same sealed inputs. *)

type ranked = {
  rkey : string;
  rcount : int;  (** summed recorded count *)
  lower : int;  (** guaranteed minimum true count: rcount - summed err *)
  upper : int;
      (** guaranteed maximum true count: rcount plus the floors of the
          merged summaries that did {e not} track this key *)
}

val top : ?n:int -> summary -> ranked list
(** Entries by recorded count descending (key ascending on ties);
    truncation to [n] happens only here, at read time. *)

val floor_total : summary -> int
(** Sum of the floors of every sealed summary merged in — the guaranteed
    bound on any key absent from the result. *)

val n_keys : summary -> int
