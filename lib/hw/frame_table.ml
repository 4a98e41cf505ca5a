let leaf_bits = 9
let leaf_size = 1 lsl leaf_bits
let dir_size ~frames = (frames + leaf_size - 1) lsr leaf_bits
let[@inline] in_range ~frames pfn = pfn >= 0 && pfn < frames
let[@inline] dir_index pfn = pfn lsr leaf_bits
let[@inline] leaf_index pfn = pfn land (leaf_size - 1)
let[@inline] covers dir pfn = dir_index pfn < Array.length dir

(* The annotation makes the directory's elements arrays, so its load is a
   plain load: inferred alone, [dir] would be a generic array and every
   probe would test for a float array. *)
let[@inline] leaf (dir : 'a array array) ~empty pfn =
  if covers dir pfn then Array.unsafe_get dir (dir_index pfn) else empty

let empty_leaf default = Array.make leaf_size default
let empty_dir = [||]

(* The first directory has room for [leaf_size] runs (1 GiB of frames):
   like a leaf, it is too large for the minor heap, so growing never adds
   minor words. Doubling after that keeps the total copied under twice the
   final size; the cap keeps the directory inside [frames]. *)
let grow dir ~frames ~empty pfn =
  let len = Array.length dir in
  let len' =
    min (dir_size ~frames) (max (dir_index pfn + 1) (max leaf_size (2 * len)))
  in
  let dir' = Array.make len' empty in
  Array.blit dir 0 dir' 0 len;
  dir'

(* The empty leaf is recognised by identity, and so is the default (its
   first entry). [Array.copy] of a 512-entry leaf allocates it directly in
   the major heap. *)
let set dir ~frames ~empty pfn v =
  let i = dir_index pfn in
  if covers dir pfn && Array.unsafe_get dir i != empty then begin
    Array.unsafe_set (Array.unsafe_get dir i) (leaf_index pfn) v;
    dir
  end
  else if v == Array.unsafe_get empty 0 then dir
  else begin
    let dir = if covers dir pfn then dir else grow dir ~frames ~empty pfn in
    let leaf = Array.copy empty in
    Array.unsafe_set leaf (leaf_index pfn) v;
    Array.unsafe_set dir i leaf;
    dir
  end

let fold f acc dir ~empty =
  Array.fold_left
    (fun acc leaf -> if leaf == empty then acc else Array.fold_left f acc leaf)
    acc dir
