(** Per-core translation lookaside buffer: direct-mapped, with each cached
    translation packed into one immediate int so the hit path never
    allocates. PKRS and CR4 feature bits are *not* cached — like hardware,
    they are consulted live on every access. Stale entries after a PTE
    change are a real hazard the OS must manage with explicit flushes. *)

type t

val create : unit -> t

(** {2 Packed-entry layout}

    bit 0 user, bit 1 writable, bit 2 nx, bits 4..7 pkey, bits 12.. pfn
    (so [packed_page_base] is the physical page base directly). *)

val pack : pfn:int -> user:bool -> writable:bool -> nx:bool -> pkey:int -> int

val packed_user : int -> bool
val packed_writable : int -> bool
val packed_nx : int -> bool
val packed_pkey : int -> int
val packed_page_base : int -> int

val find : t -> int -> int
(** [find t vpn] is the packed entry for that virtual page number, or [-1]
    on a miss. Counts misses. Allocation-free. *)

val insert : t -> int -> int -> unit
(** [insert t vaddr packed]. Direct-mapped: may evict a conflicting page. *)

val flush_page : t -> int -> unit
(** invlpg. *)

val flush_all : t -> unit
(** CR3 reload. O(1) — slots are invalidated by generation. *)

val epoch : t -> int
(** Incremented on every mutation (fill or flush). A cached translation is
    only valid while the epoch it was taken under is current — this backs
    {!Cpu}'s last-translation memo. *)

val misses : t -> int
