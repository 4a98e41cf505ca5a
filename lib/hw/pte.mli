(** Page-table-entry encoding, following the x86-64 layout: P/RW/US low
    flags, accessed/dirty, a 36-bit frame number at bit 12, a TME-MK key id
    at bits 48–57, protection key at bits 59–62 and NX at bit 63, plus the
    PS bit for 2 MiB leaves ({!huge}).

    In registers an entry is an immediate OCaml [int], so handing one
    across a closure (every {!Page_table.writer}, the kernel's privop
    table, the monitor's gate) allocates nothing. An [int] has 63 bits, so
    NX sits at bit 58 in registers and moves to bit 63 only in the stored
    word ({!of_raw}, {!to_raw}; {!Phys_mem.read_u64} and
    {!Phys_mem.write_u64} apply them). Every other bit keeps its raw
    position. Raw bit 58 is one of the bits x86 leaves to software (52–58;
    here 48–57 carry the key id): a stored word with it set loads as the
    same entry without it, so it never reaches the walker, the TLB or the
    monitor's policy, and a store derived from a load (the walker's
    accessed/dirty update) writes it back clear. *)

type t = int

val empty : t

type flags = {
  present : bool;
  writable : bool;
  user : bool;            (** U/S = 1: user-accessible page. *)
  nx : bool;              (** Non-executable. *)
  pkey : int;             (** Protection key 0–15. *)
  accessed : bool;
  dirty : bool;
}

val default_flags : flags
(** Present, writable, supervisor, executable, key 0. *)

val make : pfn:int -> flags -> t
(** Raises [Invalid_argument] for out-of-range pfn or key. *)

val pfn : t -> int
val flags : t -> flags
val present : t -> bool
val writable : t -> bool
val user : t -> bool
val nx : t -> bool
val pkey : t -> int
val dirty : t -> bool
val accessed : t -> bool

val huge : t -> bool
(** PS bit: at the page-directory level this entry maps a 2 MiB page. The
    paper's prototype disables huge pages (§7); this implementation carries
    them plus the forced-splitting path the paper leaves as future work. *)

val set_huge : t -> bool -> t

val with_pfn : t -> int -> t
val set_writable : t -> bool -> t
val set_user : t -> bool -> t
val keyid_bits : int
(** Width of the keyid field (10 → ids 0–1023). *)

val keyid : t -> int
(** Memory-encryption key id (TME-MK style), carried in the otherwise-free
    physical-address upper bits 48–57. 0 means "no key" (shared/TME-global
    key); the walker packs it into TLB entries so key checks happen at fill
    time, mirroring how TME-MK derives the keyid from PTE address bits. *)

val set_keyid : t -> int -> t
(** Raises [Invalid_argument] outside 0–1023. *)

val set_pkey : t -> int -> t
val set_dirty : t -> bool -> t
val set_accessed : t -> bool -> t

val of_raw : int64 -> t
(** The entry a stored 64-bit word encodes: raw bit 63 becomes {!nx}, raw
    bit 58 is ignored. Branch-free. *)

val to_raw : t -> int64
(** The 64-bit word that stores [t]: [of_raw (to_raw t) = t] for every
    [t], and [to_raw (of_raw w) = w] for every [w] with bit 58 clear. *)
