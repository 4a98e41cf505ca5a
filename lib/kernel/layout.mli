(** The guest virtual-address layout. 48-bit canonical-free addresses kept in
    native OCaml ints:

    {v
      0x0000_0000_1000 .. 0x0080_0000_0000   user space (progs, sandboxes)
      0x1000_0000_0000 .. +phys size         kernel direct map of all RAM
      0x2000_0000_0000 ..                    kernel text/data image
    v} *)

val user_base : int
val user_top : int
val direct_map_base : int
val kernel_text_base : int

val direct_map : int -> int
(** Kernel virtual address of a physical address. *)

val is_user_addr : int -> bool

val page_align_up : int -> int
val page_align_down : int -> int
val pages_of_bytes : int -> int
(** Page count covering a byte size (rounded up). *)
