(* Direct-mapped TLB. Each slot packs a whole translation into one
   immediate int so the hit path allocates nothing:

     bit 0        user       (U/S ANDed across the walk)
     bit 1        writable   (R/W ANDed across the walk)
     bit 2        nx         (NX ORed across the walk)
     bits 4..7    pkey       (leaf protection key)
     bits 12..    pfn        (i.e. bits 12.. are the physical page base)

   [flush_all] is O(1): slots carry the generation they were filled in and
   a stale generation means invalid. [epoch] counts every mutation (fills
   and flushes) so callers can memoize translations safely. *)

let slots = 8192
let mask = slots - 1

type t = {
  tags : int array;   (* vpn, or -1 for never-filled *)
  entries : int array;
  gens : int array;
  mutable gen : int;
  mutable epoch : int;
  mutable misses : int;
}

let vpn vaddr = vaddr lsr Phys_mem.page_shift

let create () =
  {
    tags = Array.make slots (-1);
    entries = Array.make slots 0;
    gens = Array.make slots (-1);
    gen = 0;
    epoch = 0;
    misses = 0;
  }

let pack ~pfn ~user ~writable ~nx ~pkey =
  (pfn lsl Phys_mem.page_shift)
  lor ((pkey land 0xf) lsl 4)
  lor (if nx then 4 else 0)
  lor (if writable then 2 else 0)
  lor (if user then 1 else 0)

let packed_user e = e land 1 <> 0
let packed_writable e = e land 2 <> 0
let packed_nx e = e land 4 <> 0
let packed_pkey e = (e lsr 4) land 0xf
let packed_page_base e = e land lnot (Phys_mem.page_size - 1)

(* [find t vpn] is the packed entry, or -1 on miss. Counts misses. *)
let find t vp =
  let i = vp land mask in
  if Array.unsafe_get t.tags i = vp && Array.unsafe_get t.gens i = t.gen then
    Array.unsafe_get t.entries i
  else begin
    t.misses <- t.misses + 1;
    -1
  end

let insert t vaddr packed =
  let vp = vpn vaddr in
  let i = vp land mask in
  t.tags.(i) <- vp;
  t.entries.(i) <- packed;
  t.gens.(i) <- t.gen;
  t.epoch <- t.epoch + 1

let flush_page t vaddr =
  let vp = vpn vaddr in
  let i = vp land mask in
  if t.tags.(i) = vp then t.tags.(i) <- -1;
  t.epoch <- t.epoch + 1

let flush_all t =
  t.gen <- t.gen + 1;
  t.epoch <- t.epoch + 1

let epoch t = t.epoch
let misses t = t.misses
