(** The LibOS in-sandbox heap: a first-fit free-list allocator over the
    pre-declared confined heap region (§6.2 service 1 — all memory is
    declared up front, so brk/mmap never leave the sandbox). *)

type t

val create : base:int -> len:int -> t
(** Manage [len] bytes of address space starting at [base]. *)

val alloc : t -> int -> int option
(** [alloc t n] returns an 16-byte-aligned address for [n] bytes, or [None]
    when fragmented/exhausted. *)

val free : t -> int -> unit
(** Free a block by its address; raises [Invalid_argument] on unknown or
    doubly-freed addresses. Adjacent free blocks coalesce. *)

val used_bytes : t -> int
(** Live allocations. *)
