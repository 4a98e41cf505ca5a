(** A small in-memory filesystem for the untrusted guest: regular files plus
    "special" nodes with custom read/write handlers — used to emulate the
    DebugFS channel the paper's artifact exposes at
    /sys/kernel/debug/encos-IO-emulate (§7) and the /dev/erebor driver the
    LibOS uses to issue EMCs. *)

type t

val create : unit -> t

(** {2 Regular files} *)

val write_file : t -> string -> bytes -> unit
(** Create or truncate-and-write. *)

val append_file : t -> string -> bytes -> unit
val read_file : t -> string -> bytes option
val exists : t -> string -> bool
val remove : t -> string -> bool

val file_size : t -> string -> int option

(** {2 Special nodes} *)

val register_special :
  t -> string -> read:(unit -> bytes) -> write:(bytes -> len:int -> unit) -> unit
(** [write] receives a (buffer, length) view; only the first [len] bytes
    are the payload and the buffer may be a shared scratch the caller
    reuses, so handlers must not retain it past the call. *)

val is_special : t -> string -> bool

val view : t -> string -> bytes
(** The contents of a regular or special node, not copied: treat them as
    read-only (a regular file's view keeps its contents at the time of the
    call). Raises [Not_found] when [path] is neither. *)

val write_path : t -> string -> bytes -> bool
(** Write through a special handler, or create/overwrite a regular file.
    Returns [false] only if a special node rejects… never currently; kept
    for symmetry. *)

val write_special_view : t -> string -> bytes -> len:int -> bool
(** Deliver the first [len] bytes of a caller-owned buffer to a special
    handler without copying; [false] when [path] is not special. *)
