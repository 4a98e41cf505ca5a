(** Hash table keyed by [int] with the identity hash and integer equality:
    a lookup costs a mask and an integer compare, where the polymorphic
    [Hashtbl] calls [caml_hash] and [compare]. Sandbox ids and
    address-space root frames are looked up on every demand fault and
    every sandbox leaf store. *)

include Hashtbl.S with type key = int
