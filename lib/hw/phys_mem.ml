let page_size = 4096
let page_shift = 12

(* Shared sentinel for never-written frames: a zero-length bytes. It is
   immutable (nothing ever writes through it) so sharing one across every
   machine — and every domain — is safe. A frame is backed iff its slot
   holds a bytes of length [page_size]. *)
let unbacked = Bytes.create 0

(* The empty leaf every directory slot starts on (Frame_table): 512
   [unbacked] slots, never written. *)
let empty = Frame_table.empty_leaf unbacked

type t = {
  frames : int;
  mutable pages : bytes array array;
      (* Frame_table directory: pfn -> backing page, [unbacked] until the
         frame's first write *)
  mutable backed : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  { frames; pages = Frame_table.empty_dir; backed = 0 }

let frames t = t.frames
let pfn_of_addr addr = addr lsr page_shift
let addr_of_pfn pfn = pfn lsl page_shift
let page_offset addr = addr land (page_size - 1)
let valid_pfn t pfn = Frame_table.in_range ~frames:t.frames pfn

let check_addr t addr =
  if addr < 0 || pfn_of_addr addr >= t.frames then
    invalid_arg (Printf.sprintf "Phys_mem: address 0x%x out of range" addr)

(* The page behind a pfn: one directory load, one leaf load. *)
let[@inline] page t pfn =
  Array.unsafe_get (Frame_table.leaf t.pages ~empty pfn) (Frame_table.leaf_index pfn)

let backing t pfn =
  let b = page t pfn in
  if Bytes.length b <> 0 then b
  else begin
    let b = Bytes.make page_size '\000' in
    let dir = Frame_table.set t.pages ~frames:t.frames ~empty pfn b in
    if dir != t.pages then t.pages <- dir;
    t.backed <- t.backed + 1;
    b
  end

let read_u8 t addr =
  check_addr t addr;
  let b = page t (pfn_of_addr addr) in
  if Bytes.length b = 0 then 0 else Char.code (Bytes.unsafe_get b (page_offset addr))

let write_u8 t addr v =
  check_addr t addr;
  Bytes.set (backing t (pfn_of_addr addr)) (page_offset addr) (Char.chr (v land 0xff))

(* The two checks below keep every access inside one backed page, so the
   64-bit load and store use the unchecked bytes primitives: no second
   bounds check, and the value stays unboxed wherever the call is inlined.
   A stored zero reads back as the static [0L], so probing an empty PTE
   slot allocates nothing even where it is not. *)
external get_int64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_int64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] read_u64 t addr =
  check_addr t addr;
  if page_offset addr > page_size - 8 then
    invalid_arg "Phys_mem.read_u64: crosses page boundary";
  let b = page t (pfn_of_addr addr) in
  if Bytes.length b = 0 then 0L
  else
    let v = get_int64u b (page_offset addr) in
    if Int64.equal v 0L then 0L else if Sys.big_endian then bswap64 v else v

let[@inline] write_u64 t addr v =
  check_addr t addr;
  if page_offset addr > page_size - 8 then
    invalid_arg "Phys_mem.write_u64: crosses page boundary";
  set_int64u (backing t (pfn_of_addr addr)) (page_offset addr)
    (if Sys.big_endian then bswap64 v else v)

(* Bulk transfers: one blit per touched frame, no intermediate buffers. *)

let blit_to t addr dst ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length dst then
    invalid_arg "Phys_mem.blit_to: slice out of range";
  let copied = ref 0 in
  while !copied < len do
    let a = addr + !copied in
    check_addr t a;
    let poff = page_offset a in
    let chunk = min (page_size - poff) (len - !copied) in
    let b = page t (pfn_of_addr a) in
    if Bytes.length b = 0 then Bytes.fill dst (off + !copied) chunk '\000'
    else Bytes.blit b poff dst (off + !copied) chunk;
    copied := !copied + chunk
  done

let blit_from t addr src ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Phys_mem.blit_from: slice out of range";
  let copied = ref 0 in
  while !copied < len do
    let a = addr + !copied in
    check_addr t a;
    let poff = page_offset a in
    let chunk = min (page_size - poff) (len - !copied) in
    Bytes.blit src (off + !copied) (backing t (pfn_of_addr a)) poff chunk;
    copied := !copied + chunk
  done

let copy t ~src ~dst ~len =
  if len < 0 then invalid_arg "Phys_mem.copy: negative length";
  let copied = ref 0 in
  while !copied < len do
    let sa = src + !copied and da = dst + !copied in
    check_addr t sa;
    check_addr t da;
    let chunk =
      min
        (min (page_size - page_offset sa) (page_size - page_offset da))
        (len - !copied)
    in
    let sb = page t (pfn_of_addr sa) in
    if Bytes.length sb = 0 then begin
      (* Zero source: only materialize the destination if it already is. *)
      let db = page t (pfn_of_addr da) in
      if Bytes.length db <> 0 then Bytes.fill db (page_offset da) chunk '\000'
    end
    else Bytes.blit sb (page_offset sa) (backing t (pfn_of_addr da)) (page_offset da) chunk;
    copied := !copied + chunk
  done

let read_bytes t addr len =
  if len < 0 then invalid_arg "Phys_mem.read_bytes: negative length";
  let out = Bytes.create len in
  blit_to t addr out ~off:0 ~len;
  out

let write_bytes t addr data = blit_from t addr data ~off:0 ~len:(Bytes.length data)

let zero_page t pfn =
  if not (valid_pfn t pfn) then invalid_arg "Phys_mem.zero_page: bad pfn";
  let b = page t pfn in
  if Bytes.length b <> 0 then Bytes.fill b 0 page_size '\000'

let page_is_backed t pfn = Bytes.length (page t pfn) <> 0
let backed_count t = t.backed
