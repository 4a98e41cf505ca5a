(** Hardware faults and exception vectors raised by the simulated CPU. *)

type access_kind = Read | Write | Execute

type page_fault_info = {
  addr : int;            (** Faulting virtual address. *)
  kind : access_kind;
  user : bool;           (** Access originated in user mode. *)
  present : bool;        (** Translation present (protection fault) or not. *)
  pkey_violation : bool; (** Denied by a protection key. *)
}

type t =
  | General_protection of string
      (** #GP — e.g. a privileged instruction from user mode. *)
  | Page_fault of page_fault_info  (** #PF *)
  | Control_protection of string
      (** #CP — CET violation (an indirect branch to a missing endbr64). *)
  | Virtualization_exception of int
      (** #VE with the TDX exit reason that triggered it. *)
  | Invalid_opcode of string       (** #UD *)

exception Fault of t

val raise_fault : t -> 'a

val vector : t -> int
(** x86 exception vector: #GP 13, #PF 14, #VE 20, #CP 21, #UD 6. *)

val to_string : t -> string
