(** Physical-frame allocator over a pfn range: a byte map, grown to the
    highest index handed out, with a next-fit cursor, plus contiguous
    allocation for the CMA-style reserved region the LibOS draws sandbox
    confined memory from (§7). *)

type t

val create : first_pfn:int -> frames:int -> t

val used : t -> int
val available : t -> int

val alloc : t -> int option
(** One free frame, or [None] when exhausted. *)

val alloc_pfn : t -> int
(** {!alloc} as a bare pfn, [-1] when exhausted: the demand-fault path's
    form, which allocates nothing. *)

val alloc_zeroed : t -> Hw.Phys_mem.t -> int option
(** Allocate and scrub (page-table pages must start zeroed). *)

val alloc_contig : t -> int -> int option
(** [alloc_contig t n] is the first pfn of [n] physically-contiguous frames. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] on double free or foreign pfn. *)

val is_allocated : t -> int -> bool
