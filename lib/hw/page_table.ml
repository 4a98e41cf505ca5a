type walk_result = {
  pte : Pte.t;
  pte_addr : int;
  user : bool;
  writable : bool;
  nx : bool;
  huge : bool;
  pfn : int; (* resolved for the exact vaddr (huge pages span 512 frames) *)
}

(* Index of [vaddr] in the table at [level]: 3 = PML4, 2 = PDPT, 1 = PD,
   0 = PT. *)
let[@inline] index vaddr level = (vaddr lsr (12 + (9 * level))) land 0x1ff

let split vaddr = (index vaddr 3, index vaddr 2, index vaddr 1, index vaddr 0)

type writer = pte_addr:int -> Pte.t -> unit

let[@inline] entry_addr table_pfn vaddr level =
  Phys_mem.addr_of_pfn table_pfn + (8 * index vaddr level)

(* Each descent below is written out level by level, so a walk that
   stops at a non-present slot allocates nothing. Huge entries are
   honoured only at the PD level; a PS bit higher up is walked through
   like any table pointer. *)

(* The walk packed into one immediate int, so a hit allocates nothing:
   the leaf slot's address in bits 4.., then huge (bit 3), nx (bit 2),
   writable (bit 1) and user (bit 0) accumulated across the levels; -1
   when a level is non-present. *)
let walk_packed mem ~root_pfn vaddr =
  let a4 = entry_addr root_pfn vaddr 3 in
  let e4 = Phys_mem.read_u64 mem a4 in
  if not (Pte.present e4) then -1
  else
    let a3 = entry_addr (Pte.pfn e4) vaddr 2 in
    let e3 = Phys_mem.read_u64 mem a3 in
    if not (Pte.present e3) then -1
    else
      let a2 = entry_addr (Pte.pfn e3) vaddr 1 in
      let e2 = Phys_mem.read_u64 mem a2 in
      if not (Pte.present e2) then -1
      else
        let user = Pte.user e4 && Pte.user e3 && Pte.user e2 in
        let writable = Pte.writable e4 && Pte.writable e3 && Pte.writable e2 in
        let nx = Pte.nx e4 || Pte.nx e3 || Pte.nx e2 in
        let pack addr ~huge ~user ~writable ~nx =
          (addr lsl 4)
          lor (if huge then 8 else 0)
          lor (if nx then 4 else 0)
          lor (if writable then 2 else 0)
          lor if user then 1 else 0
        in
        if Pte.huge e2 then
          (* 2 MiB leaf at the page-directory level. *)
          pack a2 ~huge:true ~user ~writable ~nx
        else
          let a1 = entry_addr (Pte.pfn e2) vaddr 0 in
          let e1 = Phys_mem.read_u64 mem a1 in
          if not (Pte.present e1) then -1
          else
            pack a1 ~huge:false ~user:(user && Pte.user e1)
              ~writable:(writable && Pte.writable e1)
              ~nx:(nx || Pte.nx e1)

let[@inline] packed_pte_addr w = w lsr 4
let[@inline] packed_huge w = w land 8 <> 0
let[@inline] packed_nx w = w land 4 <> 0
let[@inline] packed_writable w = w land 2 <> 0
let[@inline] packed_user w = w land 1 <> 0

(* The frame [vaddr] resolves to under leaf [pte] (huge leaves span 512
   frames). *)
let[@inline] leaf_pfn pte ~huge vaddr =
  if huge then Pte.pfn pte + index vaddr 0 else Pte.pfn pte

let walk mem ~root_pfn vaddr =
  let w = walk_packed mem ~root_pfn vaddr in
  if w < 0 then None
  else
    let pte_addr = packed_pte_addr w and huge = packed_huge w in
    let pte = Phys_mem.read_u64 mem pte_addr in
    Some
      { pte; pte_addr; user = packed_user w; writable = packed_writable w;
        nx = packed_nx w; huge; pfn = leaf_pfn pte ~huge vaddr }

(* Frame of the table an interior entry points to, or -1 when the entry is
   non-present. *)
let[@inline] child mem addr =
  let e = Phys_mem.read_u64 mem addr in
  if Pte.present e then Pte.pfn e else -1

(* The leaf slot's address, or -1 when an interior level is missing: what
   [unmap] and [update] probe with, so neither builds an option. *)
let leaf_slot mem ~root_pfn vaddr =
  let l3 = child mem (entry_addr root_pfn vaddr 3) in
  if l3 < 0 then -1
  else
    let l2 = child mem (entry_addr l3 vaddr 2) in
    if l2 < 0 then -1
    else
      let l1 = child mem (entry_addr l2 vaddr 1) in
      if l1 < 0 then -1 else entry_addr l1 vaddr 0

let leaf_addr mem ~root_pfn vaddr =
  let slot = leaf_slot mem ~root_pfn vaddr in
  if slot < 0 then None else Some slot

let intermediate_flags = { Pte.default_flags with user = true }

(* Follow the interior entry at [slot], installing a fresh zeroed table
   there first when it is non-present. *)
let next_table mem ~write_pte ~alloc_ptp slot =
  let pfn = child mem slot in
  if pfn >= 0 then pfn
  else begin
    let fresh = alloc_ptp () in
    write_pte ~pte_addr:slot (Pte.make ~pfn:fresh intermediate_flags);
    fresh
  end

let prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr =
  let l3 = next_table mem ~write_pte ~alloc_ptp (entry_addr root_pfn vaddr 3) in
  let l2 = next_table mem ~write_pte ~alloc_ptp (entry_addr l3 vaddr 2) in
  let l1 = next_table mem ~write_pte ~alloc_ptp (entry_addr l2 vaddr 1) in
  entry_addr l1 vaddr 0

let map mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr pte =
  write_pte ~pte_addr:(prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr) pte

let huge_page_size = 512 * Phys_mem.page_size

let map_huge mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr pte =
  if vaddr land (huge_page_size - 1) <> 0 then
    invalid_arg "Page_table.map_huge: vaddr must be 2MiB-aligned";
  if Pte.pfn pte land 0x1ff <> 0 then
    invalid_arg "Page_table.map_huge: frame must be 2MiB-aligned";
  let l3 = next_table mem ~write_pte ~alloc_ptp (entry_addr root_pfn vaddr 3) in
  let l2 = next_table mem ~write_pte ~alloc_ptp (entry_addr l3 vaddr 2) in
  write_pte ~pte_addr:(entry_addr l2 vaddr 1) (Pte.set_huge pte true)

let unmap mem ~write_pte ~root_pfn ~vaddr =
  let pte_addr = leaf_slot mem ~root_pfn vaddr in
  if pte_addr >= 0 then write_pte ~pte_addr Pte.empty

let update mem ~write_pte ~root_pfn ~vaddr f =
  let pte_addr = leaf_slot mem ~root_pfn vaddr in
  if pte_addr < 0 then false
  else
    let pte = Phys_mem.read_u64 mem pte_addr in
    if not (Pte.present pte) then false
    else begin
      write_pte ~pte_addr (f pte);
      true
    end
