(** Protection Keys for Supervisor pages (Intel PKS, §2.3 of the paper).

    IA32_PKRS holds two bits per key: AD (access disable) and WD (write
    disable). PKS applies only to supervisor data accesses to supervisor
    (U/S = 0) pages when CR4.PKS is set; it never restricts instruction
    fetches. *)

type rights = { access_disable : bool; write_disable : bool }

val allow_all : rights
val read_only : rights     (** WD set. *)
val no_access : rights     (** AD set. *)

val encode : rights array -> int64
(** [encode rights] packs rights for keys 0..15 (array length 16) into a
    PKRS value. *)

val decode : int64 -> rights array

val set_key : pkrs:int64 -> key:int -> rights -> int64
(** Functional update of one key's rights. *)

val permits : pkrs:int64 -> key:int -> write:bool -> bool
(** Whether a supervisor data access is allowed under [pkrs]. *)
