(** Kernel task (process/thread) state. Sandboxed programs are single
    address-space containers (§4.2): every task of a sandbox shares the same
    page-table root and VMA set. *)

type state = Runnable | Blocked | Dead

type kind =
  | Normal
  | Sandboxed of int  (** Erebor sandbox id. *)

type t = {
  tid : int;
  pid_result : Syscall.result;
      (** [Rint tid], built once in {!make}: what [getpid] returns, so the
          call allocates nothing. *)
  name : string;
  kind : kind;
  mutable state : state;
  mutable root_pfn : int;          (** PML4 frame of the address space. *)
  vmas : Vma.t;                    (** Changed in place by mmap/munmap/brk. *)
  mutable brk : int;               (** Program break for [brk]. *)
  mutable saved_regs : int64 array option;  (** Context saved while off-CPU. *)
  mutable cpu_cycles : int;        (** Accumulated on-CPU time. *)
  mutable exit_code : int option;
  fds : (int, string) Hashtbl.t;   (** fd -> path. *)
  mutable next_fd : int;
}

val make : tid:int -> name:string -> kind:kind -> root_pfn:int -> vmas:Vma.t -> t

val alloc_fd : t -> string -> int
val path_of_fd : t -> int -> string
(** Raises [Not_found] for an fd that is not open. *)

val close_fd : t -> int -> bool

val kill : t -> exit_code:int -> unit
(** Mark dead. *)
