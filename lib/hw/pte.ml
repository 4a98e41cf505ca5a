type t = int

let empty = 0

let bit_present = 0
let bit_writable = 1
let bit_user = 2
let bit_accessed = 5
let bit_dirty = 6
let bit_huge = 7
let pfn_shift = 12
let pfn_bits = 36
let keyid_shift = 48
let keyid_bits = 10
let bit_nx = 58 (* raw bit 63; raw bit 58 is software-available and unused *)
let pkey_shift = 59

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  nx : bool;
  pkey : int;
  accessed : bool;
  dirty : bool;
}

let default_flags =
  { present = true; writable = true; user = false; nx = false; pkey = 0;
    accessed = false; dirty = false }

let[@inline] get_bit t i = (t lsr i) land 1 = 1

let[@inline] set_bit t i v =
  if v then t lor (1 lsl i) else t land lnot (1 lsl i)

let pfn_mask = ((1 lsl pfn_bits) - 1) lsl pfn_shift

let make ~pfn flags =
  if pfn < 0 || pfn >= 1 lsl pfn_bits then invalid_arg "Pte.make: pfn out of range";
  if flags.pkey < 0 || flags.pkey > 15 then invalid_arg "Pte.make: pkey out of range";
  let t = pfn lsl pfn_shift in
  let t = set_bit t bit_present flags.present in
  let t = set_bit t bit_writable flags.writable in
  let t = set_bit t bit_user flags.user in
  let t = set_bit t bit_accessed flags.accessed in
  let t = set_bit t bit_dirty flags.dirty in
  let t = set_bit t bit_nx flags.nx in
  t lor (flags.pkey lsl pkey_shift)

let[@inline] pfn t = (t land pfn_mask) lsr pfn_shift
let[@inline] present t = get_bit t bit_present
let[@inline] writable t = get_bit t bit_writable
let[@inline] user t = get_bit t bit_user
let[@inline] nx t = get_bit t bit_nx
let[@inline] pkey t = (t lsr pkey_shift) land 0xf
let[@inline] dirty t = get_bit t bit_dirty
let[@inline] accessed t = get_bit t bit_accessed

let flags t =
  { present = present t; writable = writable t; user = user t; nx = nx t;
    pkey = pkey t; accessed = accessed t; dirty = dirty t }

let with_pfn t pfn' =
  if pfn' < 0 || pfn' >= 1 lsl pfn_bits then invalid_arg "Pte.with_pfn: pfn out of range";
  (t land lnot pfn_mask) lor (pfn' lsl pfn_shift)

let[@inline] set_writable t v = set_bit t bit_writable v
let[@inline] set_user t v = set_bit t bit_user v
let[@inline] set_dirty t v = set_bit t bit_dirty v
let[@inline] set_accessed t v = set_bit t bit_accessed v

let[@inline] huge t = get_bit t bit_huge
let[@inline] set_huge t v = set_bit t bit_huge v

let keyid_mask = ((1 lsl keyid_bits) - 1) lsl keyid_shift

let keyid t = (t land keyid_mask) lsr keyid_shift

let set_keyid t k =
  if k < 0 || k >= 1 lsl keyid_bits then invalid_arg "Pte.set_keyid: keyid out of range";
  (t land lnot keyid_mask) lor (k lsl keyid_shift)

let set_pkey t k =
  if k < 0 || k > 15 then invalid_arg "Pte.set_pkey: pkey out of range";
  (t land lnot (0xf lsl pkey_shift)) lor (k lsl pkey_shift)

(* The stored word differs from the register form only in NX: bit 63 in
   the word, bit 58 in the register. Both directions are straight-line
   shifts and masks with no branch, so the swap stays unboxed and costs the
   same on every store and load. [0x7BFF...] clears raw bits 63 and 58. *)
let[@inline] of_raw w =
  (Int64.to_int w land lnot (1 lsl bit_nx))
  lor (Int64.to_int (Int64.shift_right_logical w 63) lsl bit_nx)

let[@inline] to_raw t =
  let w = Int64.of_int t in
  Int64.logor
    (Int64.logand w 0x7BFF_FFFF_FFFF_FFFFL)
    (Int64.logand (Int64.shift_left w (63 - bit_nx)) Int64.min_int)
