(** The LibOS in-memory stateless filesystem (§6.2 service 2): file contents
    live in sandbox confined memory, allocated from the LibOS heap. After
    client data arrives the sandbox operates statelessly — temp files exist
    only here and die with the container. *)

type t

val create :
  heap:Heap.t ->
  store:(addr:int -> bytes -> unit) ->
  load:(addr:int -> len:int -> bytes) ->
  t
(** [store]/[load] move bytes to/from sandbox memory. *)

val write_file : t -> string -> bytes -> (unit, string) result
(** Create or replace; fails when the heap cannot hold the contents. *)

val append_file : t -> string -> bytes -> (unit, string) result
val read_file : t -> string -> bytes option
val file_size : t -> string -> int option
val exists : t -> string -> bool
val remove : t -> string -> bool
val list : t -> string list
