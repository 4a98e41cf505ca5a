let vectors = 256

let vec_pf = 14
let vec_timer = 32

type entry = { present : bool; handler : int }

type t = entry array

let absent = { present = false; handler = 0 }

let create () = Array.make vectors absent

let check_vector v = if v < 0 || v >= vectors then invalid_arg "Idt: bad vector"

let set t v ~handler =
  check_vector v;
  t.(v) <- { present = true; handler }

let clear t v =
  check_vector v;
  t.(v) <- absent

let copy t = Array.copy t

let deliver t v =
  check_vector v;
  let e = t.(v) in
  if not e.present then
    Fault.raise_fault (Fault.General_protection (Printf.sprintf "IDT vector %d not present" v))
  else e.handler
