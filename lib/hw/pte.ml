type t = int64

let empty = 0L

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
let pkey_shift = 59
let bit_nx = 63

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

let[@inline] get_bit t i = Int64.logand (Int64.shift_right_logical t i) 1L = 1L

let[@inline] set_bit t i v =
  if v then Int64.logor t (Int64.shift_left 1L i)
  else Int64.logand t (Int64.lognot (Int64.shift_left 1L i))

let pfn_mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L pfn_bits) 1L) pfn_shift

let make ~pfn flags =
  if pfn < 0 || pfn >= 1 lsl pfn_bits then invalid_arg "Pte.make: pfn out of range";
  if flags.pkey < 0 || flags.pkey > 15 then invalid_arg "Pte.make: pkey out of range";
  let t = Int64.shift_left (Int64.of_int pfn) pfn_shift in
  let t = set_bit t bit_present flags.present in
  let t = set_bit t bit_writable flags.writable in
  let t = set_bit t bit_user flags.user in
  let t = set_bit t bit_accessed flags.accessed in
  let t = set_bit t bit_dirty flags.dirty in
  let t = set_bit t bit_nx flags.nx in
  Int64.logor t (Int64.shift_left (Int64.of_int flags.pkey) pkey_shift)

let[@inline] pfn t = Int64.to_int (Int64.shift_right_logical (Int64.logand t pfn_mask) pfn_shift)
let[@inline] present t = get_bit t bit_present
let[@inline] writable t = get_bit t bit_writable
let[@inline] user t = get_bit t bit_user
let[@inline] nx t = get_bit t bit_nx
let[@inline] pkey t = Int64.to_int (Int64.logand (Int64.shift_right_logical t pkey_shift) 0xfL)
let[@inline] dirty t = get_bit t bit_dirty
let[@inline] accessed t = get_bit t bit_accessed

let flags t =
  { present = present t; writable = writable t; user = user t; nx = nx t;
    pkey = pkey t; accessed = accessed t; dirty = dirty t }

let with_pfn t pfn' =
  if pfn' < 0 || pfn' >= 1 lsl pfn_bits then invalid_arg "Pte.with_pfn: pfn out of range";
  Int64.logor
    (Int64.logand t (Int64.lognot pfn_mask))
    (Int64.shift_left (Int64.of_int pfn') pfn_shift)

let[@inline] set_writable t v = set_bit t bit_writable v
let[@inline] set_user t v = set_bit t bit_user v
let[@inline] set_dirty t v = set_bit t bit_dirty v
let[@inline] set_accessed t v = set_bit t bit_accessed v

let[@inline] huge t = get_bit t bit_huge
let[@inline] set_huge t v = set_bit t bit_huge v

let keyid_mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L keyid_bits) 1L) keyid_shift

let keyid t =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical t keyid_shift)
       (Int64.sub (Int64.shift_left 1L keyid_bits) 1L))

let set_keyid t k =
  if k < 0 || k >= 1 lsl keyid_bits then invalid_arg "Pte.set_keyid: keyid out of range";
  Int64.logor
    (Int64.logand t (Int64.lognot keyid_mask))
    (Int64.shift_left (Int64.of_int k) keyid_shift)

let set_pkey t k =
  if k < 0 || k > 15 then invalid_arg "Pte.set_pkey: pkey out of range";
  Int64.logor
    (Int64.logand t (Int64.lognot (Int64.shift_left 0xfL pkey_shift)))
    (Int64.shift_left (Int64.of_int k) pkey_shift)

