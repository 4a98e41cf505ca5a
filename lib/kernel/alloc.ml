(* The used map holds one byte per index and grows (doubling, from one
   page's worth) to cover the highest index ever taken; an index past its
   end is free. Next-fit hands indices out in order, so a region costs
   host memory in proportion to how far allocation has reached into it,
   not to its size, and a probe stays one load. *)
type t = {
  first_pfn : int;
  frames : int;
  mutable bitmap : Bytes.t;  (* index -> 0 free, 1 used *)
  mutable cursor : int;      (* next-fit start index *)
  mutable used : int;
}

let create ~first_pfn ~frames =
  if frames <= 0 then invalid_arg "Alloc.create: frames must be positive";
  { first_pfn; frames; bitmap = Bytes.empty; cursor = 0; used = 0 }

let used t = t.used
let available t = t.frames - t.used

let[@inline] taken t i = i < Bytes.length t.bitmap && Bytes.unsafe_get t.bitmap i <> '\000'

let grow t i =
  let len = Bytes.length t.bitmap in
  let b = Bytes.make (min t.frames (max (i + 1) (max 4096 (2 * len)))) '\000' in
  Bytes.blit t.bitmap 0 b 0 len;
  t.bitmap <- b

let[@inline] mark t i v =
  if i >= Bytes.length t.bitmap then grow t i;
  Bytes.unsafe_set t.bitmap i (if v then '\001' else '\000')

let take t i =
  mark t i true;
  t.used <- t.used + 1

(* Next-fit from [i], wrapping once round the region: the frame, or -1.
   Toplevel and over ints, so a fault's allocation builds nothing. *)
let rec scan t i remaining =
  if remaining = 0 then -1
  else begin
    let i = if i >= t.frames then 0 else i in
    if taken t i then scan t (i + 1) (remaining - 1)
    else begin
      take t i;
      t.cursor <- i + 1;
      t.first_pfn + i
    end
  end

let alloc_pfn t = if t.used >= t.frames then -1 else scan t t.cursor t.frames

let alloc t =
  let pfn = alloc_pfn t in
  if pfn < 0 then None else Some pfn

let alloc_zeroed t mem =
  match alloc t with
  | None -> None
  | Some pfn ->
      Hw.Phys_mem.zero_page mem pfn;
      Some pfn

let alloc_contig t n =
  if n <= 0 then invalid_arg "Alloc.alloc_contig: n must be positive";
  let rec find start =
    if start + n > t.frames then None
    else begin
      (* Find the last taken frame in the window, if any. *)
      let rec window i = if i = start + n then None else if taken t i then Some i else window (i + 1) in
      match window start with
      | Some blocker -> find (blocker + 1)
      | None ->
          for i = start to start + n - 1 do
            take t i
          done;
          Some (t.first_pfn + start)
    end
  in
  find 0

let index_of t pfn =
  let i = pfn - t.first_pfn in
  if i < 0 || i >= t.frames then invalid_arg "Alloc: pfn outside this allocator";
  i

let free t pfn =
  let i = index_of t pfn in
  if not (taken t i) then invalid_arg "Alloc.free: double free";
  mark t i false;
  t.used <- t.used - 1

let is_allocated t pfn = taken t (index_of t pfn)
