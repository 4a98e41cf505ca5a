(** A minimal ELF-like binary image format for the guest kernel and the
    monitor. Erebor's second boot stage parses these with its own loader and
    byte-scans every *executable* section for sensitive instructions before
    relocating and booting the kernel (§5.1). *)

type section = {
  name : string;
  vaddr : int;           (** Load virtual address. *)
  executable : bool;
  writable : bool;
  data : bytes;
}

type t = {
  entry : int;           (** Entry-point virtual address. *)
  sections : section list;
}

val serialize : t -> bytes
(** Flat wire encoding (magic "EREB1", entry, section table, payloads). *)

val parse : bytes -> (t, string) result
(** Strict parser: rejects bad magic, truncated tables, overlapping or
    out-of-order payloads, and non-printable section names. *)

val executable_sections : t -> section list

val find_section : t -> string -> section option
