(** The JSON decoder of the bench record and the host benchmark's
    reference. The checks that read it are {!Bench_check}'s; this unit
    holds only the decoder, so perf/ links it without linking them. *)

(** Dependency-free JSON subset. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Parse a complete JSON document; [Error] carries a message with the
      byte offset of the failure. *)

  val member : string -> t -> t option

  val to_float : t option -> float option
  (** A number member's value; [None] for anything else. *)

  val to_int : t option -> int option
  val to_str : t option -> string option

  val to_arr : t option -> t list
  (** An array member's elements; [[]] for anything else. *)
end
