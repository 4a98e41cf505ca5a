(* Shared varint plumbing for the telemetry wire formats (Sketch, Topk,
   Exemplar, Agg). LEB128 for non-negative ints, zigzag on top for
   signed fields. Internal to the library — obs.ml does not re-export
   it. *)

exception Bad of string

let put_varint buf v =
  if v < 0 then invalid_arg "Sketch_wire.put_varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let put_signed buf v = put_varint buf ((v lsl 1) lxor (v asr 62))

let get_varint s pos =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    if !pos >= String.length s then raise (Bad "truncated varint");
    if !shift > 56 then raise (Bad "varint overflow");
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  (* A 9th byte can set the sign bit; no field is ever negative. *)
  if !v < 0 then raise (Bad "varint overflow");
  !v

let get_signed s pos =
  let v = get_varint s pos in
  (v lsr 1) lxor (-(v land 1))

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string s pos =
  let len = get_varint s pos in
  if len > String.length s - !pos then raise (Bad "truncated string");
  let r = String.sub s !pos len in
  pos := !pos + len;
  r
