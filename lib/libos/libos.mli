(** The Gramine-derived Library OS running inside EREBOR-SANDBOX (§6.2).

    Boot pre-declares all confined memory, pre-creates worker threads, and
    preloads required files; afterwards every runtime service — heap,
    filesystem, synchronization — is emulated in-process, and the only exit
    is the monitor's ioctl channel. *)

module Heap = Heap
module Spinlock = Spinlock
module Memfs = Memfs

type t

val boot :
  mgr:Erebor.Sandbox.manager ->
  sb:Erebor.Sandbox.t ->
  heap_bytes:int ->
  threads:int ->
  preload:(string * bytes) list ->
  (t, string) result
(** Declare the confined heap, spawn [threads] pre-created workers (clone
    happens now, never after sealing), mount the in-memory FS and preload
    files into it. *)

val fs : t -> Memfs.t
val heap : t -> Heap.t
val heap_base : t -> int
val thread_count : t -> int

(** {2 Emulated runtime services (each charges the LibOS service cost)} *)

val runtime_service : t -> unit
(** Account one generic emulated service call (what a syscall would have
    been). *)

val malloc : t -> int -> (int, string) result
val free : t -> int -> unit
val read_file : t -> string -> (bytes, string) result
val write_file : t -> string -> bytes -> (unit, string) result
val store : t -> addr:int -> bytes -> unit
(** Raw write into sandbox memory (program stores). *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Internal spinlock synchronization — no futex, no exit. *)

val parallel_compute : t -> total_cycles:int -> sync_ops:int -> unit
(** Model a data-parallel phase across the worker threads: wall-clock is
    [total_cycles / threads] plus [sync_ops] lock acquisitions. *)

val recv_input : t -> (bytes, string) result
(** Fetch client data through the monitor's ioctl channel (§6.3). *)

val send_output : t -> bytes -> (unit, string) result

val service_calls : t -> int
(** Emulated service invocations (they replace what would have been
    syscalls — the LibOS-only overhead of §9.2). *)

(** POSIX-flavored file API over the in-memory FS — the compatibility
    surface Gramine provides to unmodified applications (§7: "supports
    POSIX APIs and over 170 Linux system calls"). All calls are emulated in
    process; none exits the sandbox. *)
module Posix : sig
  type errno = EBADF | ENOENT | EEXIST | EINVAL | ENOSPC | EACCES

  val errno_to_string : errno -> string

  type flag = O_RDONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_EXCL
  type whence = SEEK_SET | SEEK_CUR | SEEK_END

  type dir
  (** A descriptor table bound to one LibOS instance. *)

  val attach : t -> dir

  val openf : dir -> string -> flag list -> (int, errno) result
  val read : dir -> int -> int -> (bytes, errno) result
  val write : dir -> int -> bytes -> (int, errno) result
  val lseek : dir -> int -> int -> whence -> (int, errno) result
  val close : dir -> int -> (unit, errno) result
  val unlink : dir -> string -> (unit, errno) result
  val rename : dir -> string -> string -> (unit, errno) result
  val stat_size : dir -> string -> (int, errno) result
  val dup : dir -> int -> (int, errno) result
  val open_fds : dir -> int
end
