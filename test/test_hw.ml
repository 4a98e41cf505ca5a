(* Tests for the simulated hardware substrate. *)

open Hw


let expect_fault name f check =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected a fault")
  | exception Fault.Fault flt ->
      if not (check flt) then
        Alcotest.fail (Printf.sprintf "%s: unexpected fault %s" name (Fault.to_string flt))

let is_pf = function Fault.Page_fault _ -> true | _ -> false
let is_pkey_pf = function Fault.Page_fault { pkey_violation; _ } -> pkey_violation | _ -> false
let is_gp = function Fault.General_protection _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)
(* ------------------------------------------------------------------ *)

let test_phys_mem_rw () =
  let mem = Phys_mem.create ~frames:16 in
  Alcotest.(check int) "unwritten reads zero" 0 (Phys_mem.read_u8 mem 0x1234);
  Alcotest.(check bool) "not backed before write" false (Phys_mem.page_is_backed mem 1);
  Phys_mem.write_u8 mem 0x1234 0xAB;
  Alcotest.(check int) "read back" 0xAB (Phys_mem.read_u8 mem 0x1234);
  Alcotest.(check bool) "backed after write" true (Phys_mem.page_is_backed mem 1);
  Alcotest.(check int) "one backed frame" 1 (Phys_mem.backed_count mem);
  Phys_mem.write_u64 mem 0x2000 0x1122334455667788L;
  Alcotest.(check int64) "u64 roundtrip" 0x1122334455667788L (Phys_mem.read_u64 mem 0x2000)

let test_phys_mem_cross_page () =
  let mem = Phys_mem.create ~frames:4 in
  let data = Bytes.init 6000 (fun i -> Char.chr (i mod 251)) in
  Phys_mem.write_bytes mem 100 data;
  Alcotest.(check bytes) "cross-page blit" data (Phys_mem.read_bytes mem 100 6000)

let test_phys_mem_bounds () =
  let mem = Phys_mem.create ~frames:2 in
  Alcotest.check_raises "oob read" (Invalid_argument "Phys_mem: address 0x2000 out of range")
    (fun () -> ignore (Phys_mem.read_u8 mem 0x2000));
  Alcotest.check_raises "u64 page straddle"
    (Invalid_argument "Phys_mem.read_u64: crosses page boundary") (fun () ->
      ignore (Phys_mem.read_u64 mem 0xffc))

let test_phys_mem_zero () =
  let mem = Phys_mem.create ~frames:2 in
  Phys_mem.write_u8 mem 0x10 0xFF;
  Phys_mem.zero_page mem 0;
  Alcotest.(check int) "zeroed" 0 (Phys_mem.read_u8 mem 0x10)

let test_phys_mem_blit () =
  let mem = Phys_mem.create ~frames:4 in
  let data = Bytes.init 5000 (fun i -> Char.chr ((i * 7) mod 256)) in
  (* blit_from at an offset, cross-page destination. *)
  Phys_mem.blit_from mem 0x800 data ~off:100 ~len:3000;
  let back = Bytes.make 3200 '\xff' in
  Phys_mem.blit_to mem 0x800 back ~off:100 ~len:3000;
  Alcotest.(check bytes) "blit roundtrip (offset window)"
    (Bytes.sub data 100 3000) (Bytes.sub back 100 3000);
  Alcotest.(check char) "bytes outside the window untouched" '\xff' (Bytes.get back 50);
  (* copy across a page boundary, then verify via read_bytes. *)
  Phys_mem.copy mem ~src:0x800 ~dst:0x2800 ~len:3000;
  Alcotest.(check bytes) "copy" (Bytes.sub data 100 3000) (Phys_mem.read_bytes mem 0x2800 3000);
  (* Zero-length operations are no-ops, not errors. *)
  Phys_mem.blit_from mem 0x0 data ~off:0 ~len:0;
  Phys_mem.blit_to mem 0x0 back ~off:0 ~len:0;
  Alcotest.check_raises "oob blit"
    (Invalid_argument "Phys_mem: address 0x4000 out of range") (fun () ->
      Phys_mem.blit_from mem 0x3c00 data ~off:0 ~len:2000)

(* ------------------------------------------------------------------ *)
(* Pte                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pte_roundtrip () =
  let flags =
    { Pte.present = true; writable = false; user = true; nx = true; pkey = 13;
      accessed = false; dirty = true }
  in
  let pte = Pte.make ~pfn:0xABCDE flags in
  Alcotest.(check int) "pfn" 0xABCDE (Pte.pfn pte);
  Alcotest.(check bool) "present" true (Pte.present pte);
  Alcotest.(check bool) "writable" false (Pte.writable pte);
  Alcotest.(check bool) "user" true (Pte.user pte);
  Alcotest.(check bool) "nx" true (Pte.nx pte);
  Alcotest.(check int) "pkey" 13 (Pte.pkey pte);
  Alcotest.(check bool) "dirty" true (Pte.dirty pte);
  let pte2 = Pte.set_pkey (Pte.set_writable pte true) 5 in
  Alcotest.(check bool) "set writable" true (Pte.writable pte2);
  Alcotest.(check int) "set pkey" 5 (Pte.pkey pte2);
  Alcotest.(check int) "pfn preserved" 0xABCDE (Pte.pfn pte2)

let prop_pte_flags =
  QCheck.Test.make ~name:"pte flags roundtrip" ~count:200
    QCheck.(
      tup7 bool bool bool bool (int_bound 15) bool (int_bound ((1 lsl 30) - 1)))
    (fun (present, writable, user, nx, pkey, dirty, pfn) ->
      let flags = { Pte.present; writable; user; nx; pkey; accessed = false; dirty } in
      let pte = Pte.make ~pfn flags in
      Pte.flags pte = { flags with accessed = false } && Pte.pfn pte = pfn)

(* ------------------------------------------------------------------ *)
(* Pks                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pks_encode_decode () =
  let rights = Array.make 16 Pks.allow_all in
  rights.(1) <- Pks.no_access;
  rights.(15) <- Pks.read_only;
  let pkrs = Pks.encode rights in
  let decoded = Pks.decode pkrs in
  Alcotest.(check bool) "key1 AD" true decoded.(1).Pks.access_disable;
  Alcotest.(check bool) "key15 WD" true decoded.(15).Pks.write_disable;
  Alcotest.(check bool) "key0 free" false decoded.(0).Pks.access_disable

let test_pks_permits () =
  let rights = Array.make 16 Pks.allow_all in
  rights.(2) <- Pks.read_only;
  rights.(3) <- Pks.no_access;
  let pkrs = Pks.encode rights in
  Alcotest.(check bool) "key0 write" true (Pks.permits ~pkrs ~key:0 ~write:true);
  Alcotest.(check bool) "key2 read" true (Pks.permits ~pkrs ~key:2 ~write:false);
  Alcotest.(check bool) "key2 write denied" false (Pks.permits ~pkrs ~key:2 ~write:true);
  Alcotest.(check bool) "key3 read denied" false (Pks.permits ~pkrs ~key:3 ~write:false)

let test_pks_set_key () =
  let pkrs = Pks.encode (Array.make 16 Pks.allow_all) in
  let pkrs = Pks.set_key ~pkrs ~key:7 Pks.no_access in
  Alcotest.(check bool) "key7 denied" false (Pks.permits ~pkrs ~key:7 ~write:false);
  Alcotest.(check bool) "key6 untouched" true (Pks.permits ~pkrs ~key:6 ~write:true);
  let pkrs = Pks.set_key ~pkrs ~key:7 Pks.allow_all in
  Alcotest.(check bool) "key7 restored" true (Pks.permits ~pkrs ~key:7 ~write:true)

(* ------------------------------------------------------------------ *)
(* Page_table                                                          *)
(* ------------------------------------------------------------------ *)

let make_env ?(frames = 512) () =
  let mem = Phys_mem.create ~frames in
  let next = ref 1 in
  let alloc_ptp () =
    let pfn = !next in
    incr next;
    pfn
  in
  let write_pte ~pte_addr pte = Phys_mem.write_u64 mem pte_addr pte in
  (mem, alloc_ptp, write_pte)

let test_pt_map_walk () =
  let mem, alloc_ptp, write_pte = make_env () in
  let root = alloc_ptp () in
  let vaddr = 0x7f_1234_5000 in
  let pte = Pte.make ~pfn:100 { Pte.default_flags with user = true } in
  Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr pte;
  (match Page_table.walk mem ~root_pfn:root vaddr with
  | None -> Alcotest.fail "mapping missing"
  | Some w ->
      Alcotest.(check int) "leaf pfn" 100 (Pte.pfn w.Page_table.pte);
      Alcotest.(check bool) "combined user" true w.Page_table.user;
      Alcotest.(check bool) "combined writable" true w.Page_table.writable);
  Alcotest.(check bool) "unmapped sibling absent" true
    (Page_table.walk mem ~root_pfn:root (vaddr + 0x1000) = None)

let test_pt_unmap () =
  let mem, alloc_ptp, write_pte = make_env () in
  let root = alloc_ptp () in
  let vaddr = 0x1000_0000 in
  Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr
    (Pte.make ~pfn:7 Pte.default_flags);
  Page_table.unmap mem ~write_pte ~root_pfn:root ~vaddr;
  Alcotest.(check bool) "gone" true (Page_table.walk mem ~root_pfn:root vaddr = None);
  (* Unmapping an address with no intermediate tables is a no-op. *)
  Page_table.unmap mem ~write_pte ~root_pfn:root ~vaddr:0x7fff_0000_0000

let test_pt_update () =
  let mem, alloc_ptp, write_pte = make_env () in
  let root = alloc_ptp () in
  let vaddr = 0x2000 in
  Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr
    (Pte.make ~pfn:9 Pte.default_flags);
  let changed =
    Page_table.update mem ~write_pte ~root_pfn:root ~vaddr (fun pte ->
        Pte.set_writable pte false)
  in
  Alcotest.(check bool) "updated" true changed;
  (match Page_table.walk mem ~root_pfn:root vaddr with
  | Some w -> Alcotest.(check bool) "now read-only" false (Pte.writable w.Page_table.pte)
  | None -> Alcotest.fail "lost mapping");
  Alcotest.(check bool) "update of unmapped returns false" false
    (Page_table.update mem ~write_pte ~root_pfn:root ~vaddr:0xdead000 Fun.id)

let test_pt_distinct_vaddrs () =
  let mem, alloc_ptp, write_pte = make_env ~frames:2048 () in
  let root = alloc_ptp () in
  (* Addresses chosen to differ at every level of the tree. *)
  let cases =
    [ (0x0000_0000_1000, 11); (0x0000_0020_0000, 22); (0x0000_4000_0000, 33);
      (0x0080_0000_0000, 44); (0x7fff_ffff_f000, 55) ]
  in
  List.iter
    (fun (vaddr, pfn) ->
      Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr
        (Pte.make ~pfn Pte.default_flags))
    cases;
  List.iter
    (fun (vaddr, pfn) ->
      match Page_table.walk mem ~root_pfn:root vaddr with
      | Some w -> Alcotest.(check int) "pfn" pfn (Pte.pfn w.Page_table.pte)
      | None -> Alcotest.fail "missing mapping")
    cases

(* Random map/unmap sequences agree with a model map. *)
let prop_pt_model =
  QCheck.Test.make ~name:"page table agrees with model" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (pair (int_bound 15) (int_bound 200)))
    (fun ops ->
      let mem, alloc_ptp, write_pte = make_env ~frames:4096 () in
      let root = alloc_ptp () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (slot, pfn) ->
          let vaddr = 0x1_0000_0000 + (slot * 0x1000) in
          if pfn < 20 then begin
            (* unmap *)
            Hw.Page_table.unmap mem ~write_pte ~root_pfn:root ~vaddr;
            Hashtbl.remove model vaddr
          end
          else begin
            let pfn = pfn + 1000 in
            Hw.Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr
              (Hw.Pte.make ~pfn Hw.Pte.default_flags);
            Hashtbl.replace model vaddr pfn
          end)
        ops;
      List.for_all
        (fun slot ->
          let vaddr = 0x1_0000_0000 + (slot * 0x1000) in
          match (Hw.Page_table.walk mem ~root_pfn:root vaddr, Hashtbl.find_opt model vaddr) with
          | Some w, Some pfn -> w.Hw.Page_table.pfn = pfn
          | None, None -> true
          | _ -> false)
        (List.init 16 Fun.id))

(* A list-driven reference walker: each descent builds the index list and
   recurses over it. It is the oracle the straight-line [Page_table] must
   agree with, result for result and store for store. *)
module Ref_walker = struct
  let split vaddr =
    let idx n = (vaddr lsr (12 + (9 * n))) land 0x1ff in
    (idx 3, idx 2, idx 1, idx 0)

  let entry_addr table_pfn index = Phys_mem.addr_of_pfn table_pfn + (8 * index)

  let walk mem ~root_pfn vaddr =
    let i4, i3, i2, i1 = split vaddr in
    let rec descend pfn indices user writable nx =
      match indices with
      | [] -> assert false
      | [ leaf_idx ] ->
          let pte_addr = entry_addr pfn leaf_idx in
          let pte = Phys_mem.read_u64 mem pte_addr in
          if not (Pte.present pte) then None
          else
            Some
              { Page_table.pte; pte_addr; user = user && Pte.user pte;
                writable = writable && Pte.writable pte; nx = nx || Pte.nx pte;
                huge = false; pfn = Pte.pfn pte }
      | idx :: rest ->
          let pte_addr = entry_addr pfn idx in
          let e = Phys_mem.read_u64 mem pte_addr in
          if not (Pte.present e) then None
          else if Pte.huge e && List.length rest = 1 then
            Some
              { Page_table.pte = e; pte_addr; user = user && Pte.user e;
                writable = writable && Pte.writable e; nx = nx || Pte.nx e;
                huge = true; pfn = Pte.pfn e + i1 }
          else
            descend (Pte.pfn e) rest (user && Pte.user e) (writable && Pte.writable e)
              (nx || Pte.nx e)
    in
    descend root_pfn [ i4; i3; i2; i1 ] true true false

  let leaf_addr mem ~root_pfn vaddr =
    let i4, i3, i2, i1 = split vaddr in
    let rec descend pfn = function
      | [] -> assert false
      | [ leaf_idx ] -> Some (entry_addr pfn leaf_idx)
      | idx :: rest ->
          let e = Phys_mem.read_u64 mem (entry_addr pfn idx) in
          if not (Pte.present e) then None else descend (Pte.pfn e) rest
    in
    descend root_pfn [ i4; i3; i2; i1 ]

  let intermediate_flags = { Pte.default_flags with user = true }

  let rec descend_alloc mem ~write_pte ~alloc_ptp pfn = function
    | [] -> assert false
    | [ last ] -> entry_addr pfn last
    | idx :: rest ->
        let slot = entry_addr pfn idx in
        let e = Phys_mem.read_u64 mem slot in
        let next_pfn =
          if Pte.present e then Pte.pfn e
          else begin
            let fresh = alloc_ptp () in
            write_pte ~pte_addr:slot (Pte.make ~pfn:fresh intermediate_flags);
            fresh
          end
        in
        descend_alloc mem ~write_pte ~alloc_ptp next_pfn rest

  let prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr =
    let i4, i3, i2, i1 = split vaddr in
    descend_alloc mem ~write_pte ~alloc_ptp root_pfn [ i4; i3; i2; i1 ]

  let map mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr pte =
    write_pte ~pte_addr:(prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr) pte

  let map_huge mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr pte =
    if vaddr land (Page_table.huge_page_size - 1) <> 0 then
      invalid_arg "Page_table.map_huge: vaddr must be 2MiB-aligned";
    if Pte.pfn pte land 0x1ff <> 0 then
      invalid_arg "Page_table.map_huge: frame must be 2MiB-aligned";
    let i4, i3, i2, _ = split vaddr in
    write_pte
      ~pte_addr:(descend_alloc mem ~write_pte ~alloc_ptp root_pfn [ i4; i3; i2 ])
      (Pte.set_huge pte true)

  let unmap mem ~write_pte ~root_pfn ~vaddr =
    match leaf_addr mem ~root_pfn vaddr with
    | None -> ()
    | Some pte_addr -> write_pte ~pte_addr Pte.empty

  let update mem ~write_pte ~root_pfn ~vaddr f =
    match leaf_addr mem ~root_pfn vaddr with
    | None -> false
    | Some pte_addr ->
        let pte = Phys_mem.read_u64 mem pte_addr in
        if not (Pte.present pte) then false
        else begin
          write_pte ~pte_addr (f pte);
          true
        end
end

(* A random four-level tree grown from [seed]: each table fills the slots
   at indices 0, 1, 2 and 511 with an empty slot, a non-present entry with
   junk bits, a pointer to a fresh table, a leaf, a huge entry (honoured
   only at the PD level), or a pointer past the end of memory. Every entry
   draws its own user/writable/nx bits. *)
let pt_frames = 512
let pt_indices = [| 0; 1; 2; 511 |]

let random_tree seed =
  let rng = Random.State.make [| seed |] in
  let mem = Phys_mem.create ~frames:pt_frames in
  let next = ref 1 in
  let fresh () =
    let pfn = !next in
    incr next;
    pfn
  in
  let bit () = Random.State.bool rng in
  let entry pfn =
    Pte.make ~pfn { Pte.default_flags with user = bit (); writable = bit (); nx = bit () }
  in
  let rec fill table level =
    Array.iter
      (fun idx ->
        let slot = Phys_mem.addr_of_pfn table + (8 * idx) in
        let v =
          match Random.State.int rng 10 with
          | 0 | 1 -> Pte.empty
          | 2 -> Int64.logand (Random.State.bits64 rng) (Int64.lognot 1L)
          | 3 -> Pte.set_huge (entry (512 * Random.State.int rng 8)) true
          | 4 -> entry (pt_frames + Random.State.int rng 64)
          | _ when level = 0 -> entry (Random.State.int rng 4096)
          | _ ->
              let child = fresh () in
              fill child (level - 1);
              (* A PS bit above the PD level must be walked through. *)
              if Random.State.int rng 8 = 0 then Pte.set_huge (entry child) true
              else entry child
        in
        Phys_mem.write_u64 mem slot v)
      pt_indices
  in
  let root = fresh () in
  fill root 3;
  (mem, root, !next)

type pt_op =
  | Walk of int
  | Leaf_addr of int
  | Map of int * int
  | Prepare_leaf of int
  | Update of int
  | Unmap of int
  | Map_huge of int * int

let pt_op_gen =
  let open QCheck.Gen in
  let idx = oneofa (Array.append pt_indices [| 3 |]) in
  let vaddr =
    map (fun (((a, b), (c, d)), off) ->
        (a lsl 39) lor (b lsl 30) lor (c lsl 21) lor (d lsl 12) lor off)
      (pair (pair (pair idx idx) (pair idx idx)) (int_bound 4095))
  in
  oneof
    [ map (fun v -> Walk v) vaddr; map (fun v -> Leaf_addr v) vaddr;
      map2 (fun v pfn -> Map (v, pfn)) vaddr (int_bound 4095);
      map (fun v -> Prepare_leaf v) vaddr; map (fun v -> Update v) vaddr;
      map (fun v -> Unmap v) vaddr;
      map2 (fun v k -> Map_huge (v land lnot (Page_table.huge_page_size - 1), 512 * k))
        vaddr (int_bound 7) ]

(* Run [ops] on a fresh copy of the tree with one implementation; return
   every result (exceptions included), every store, and the final image. *)
let pt_trace ~walk ~leaf_addr ~map ~prepare_leaf ~update ~unmap ~map_huge seed ops =
  let mem, root_pfn, first_free = random_tree seed in
  let stores = ref [] in
  let write_pte ~pte_addr pte =
    stores := (pte_addr, pte) :: !stores;
    Phys_mem.write_u64 mem pte_addr pte
  in
  let next = ref first_free in
  let alloc_ptp () =
    let pfn = !next in
    incr next;
    pfn
  in
  let leaf pfn = Pte.make ~pfn { Pte.default_flags with user = true } in
  let run op =
    match op with
    | Walk v -> `Walk (walk mem ~root_pfn v)
    | Leaf_addr v -> `Addr (leaf_addr mem ~root_pfn v)
    | Map (v, pfn) -> `Unit (map mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr:v (leaf pfn))
    | Prepare_leaf v -> `Int (prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr:v)
    | Update v ->
        `Bool
          (update mem ~write_pte ~root_pfn ~vaddr:v (fun pte ->
               Pte.set_writable pte (not (Pte.writable pte))))
    | Unmap v -> `Unit (unmap mem ~write_pte ~root_pfn ~vaddr:v)
    | Map_huge (v, pfn) ->
        `Unit (map_huge mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr:v (leaf pfn))
  in
  let results =
    List.map
      (fun op -> match run op with r -> Ok r | exception e -> Error (Printexc.to_string e))
      ops
  in
  let image =
    List.init pt_frames (fun pfn ->
        Phys_mem.read_bytes mem (Phys_mem.addr_of_pfn pfn) Phys_mem.page_size)
  in
  (results, List.rev !stores, image)

let prop_pt_matches_reference =
  QCheck.Test.make ~name:"straight-line walker = list-based reference" ~count:200
    QCheck.(pair small_nat (make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) pt_op_gen)))
    (fun (seed, ops) ->
      let straight =
        pt_trace ~walk:Page_table.walk ~leaf_addr:Page_table.leaf_addr
          ~map:Page_table.map ~prepare_leaf:Page_table.prepare_leaf
          ~update:Page_table.update ~unmap:Page_table.unmap
          ~map_huge:Page_table.map_huge seed ops
      in
      let reference =
        pt_trace ~walk:Ref_walker.walk ~leaf_addr:Ref_walker.leaf_addr
          ~map:Ref_walker.map ~prepare_leaf:Ref_walker.prepare_leaf
          ~update:Ref_walker.update ~unmap:Ref_walker.unmap
          ~map_huge:Ref_walker.map_huge seed ops
      in
      straight = reference)

(* The probe side of the paging path allocates nothing: a walk that stops
   at a non-present slot, and [read_u64] -> [Pte.present]/[Pte.pfn]
   decodes of both an empty slot and a present entry in a backed table
   page. The present read holds only because the build inlines across
   modules (the release profile in dune-workspace): compiled with
   [-opaque], as under [--profile dev], each present read boxes its
   [int64] and this test fails. *)
let test_pt_probe_no_alloc () =
  let mem, alloc_ptp, write_pte = make_env () in
  let root = alloc_ptp () in
  Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr:0x1000
    (Pte.make ~pfn:9 Pte.default_flags);
  (* PML4 slot 1 of the backed root is empty. *)
  let unmapped = 0x80_0000_0000 in
  let empty_slot = Phys_mem.addr_of_pfn root + 8 in
  let hits = ref 0 in
  ignore (Page_table.walk mem ~root_pfn:root unmapped);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    match Page_table.walk mem ~root_pfn:root unmapped with
    | None -> ()
    | Some _ -> incr hits
  done;
  for _ = 1 to 10_000 do
    let e = Phys_mem.read_u64 mem empty_slot in
    if Pte.present e then hits := !hits + Pte.pfn e
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "nothing mapped" 0 !hits;
  Alcotest.(check (float 0.0)) "zero minor words" 0.0 (w1 -. w0);
  (* PML4 slot 0 is present: it points at the PDPT [map] allocated. *)
  let present_slot = Phys_mem.addr_of_pfn root in
  Alcotest.(check bool) "slot present" true
    (Pte.present (Phys_mem.read_u64 mem present_slot));
  let pdpt = Pte.pfn (Phys_mem.read_u64 mem present_slot) in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let e = Phys_mem.read_u64 mem present_slot in
    if Pte.present e then sum := !sum + Pte.pfn e
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "present entry decoded" (10_000 * pdpt) !sum;
  Alcotest.(check (float 0.0)) "present decodes: zero minor words" 0.0
    (w1 -. w0)

(* ------------------------------------------------------------------ *)
(* Access checks                                                       *)
(* ------------------------------------------------------------------ *)

let base_ctx =
  { Access.user_mode = false; wp = true; smep = true; smap = true; pks = true;
    ac = false; pkrs = 0L }

let user_page = { Access.user = true; writable = true; nx = false; pkey = 0 }
let kernel_page = { Access.user = false; writable = true; nx = false; pkey = 0 }

let check_ok name ctx kind tr =
  match Access.check ctx ~kind ~addr:0x1000 tr with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Printf.sprintf "%s: unexpected %s" name (Fault.to_string f))

let check_denied name ctx kind tr pred =
  match Access.check ctx ~kind ~addr:0x1000 tr with
  | Ok () -> Alcotest.fail (name ^ ": expected denial")
  | Error f ->
      if not (pred f) then
        Alcotest.fail (Printf.sprintf "%s: wrong fault %s" name (Fault.to_string f))

let test_access_user_mode () =
  let ctx = { base_ctx with Access.user_mode = true } in
  check_ok "user reads user page" ctx Fault.Read user_page;
  check_ok "user writes user page" ctx Fault.Write user_page;
  check_denied "user reads kernel page" ctx Fault.Read kernel_page is_pf;
  check_denied "user writes ro page" ctx Fault.Write { user_page with Access.writable = false } is_pf;
  check_denied "user executes nx" ctx Fault.Execute { user_page with Access.nx = true } is_pf;
  check_ok "user executes user page" ctx Fault.Execute user_page

let test_access_smep_smap () =
  check_denied "smap blocks kernel read of user page" base_ctx Fault.Read user_page is_pf;
  check_denied "smap blocks kernel write of user page" base_ctx Fault.Write user_page is_pf;
  check_ok "stac bypasses smap" { base_ctx with Access.ac = true } Fault.Read user_page;
  check_denied "smep blocks kernel exec of user page" base_ctx Fault.Execute user_page is_pf;
  check_ok "kernel exec of kernel page" base_ctx Fault.Execute kernel_page;
  let no_smap = { base_ctx with Access.smap = false } in
  check_ok "no smap: kernel reads user page" no_smap Fault.Read user_page

let test_access_wp () =
  let ro = { kernel_page with Access.writable = false } in
  check_denied "wp blocks kernel write to ro" base_ctx Fault.Write ro is_pf;
  check_ok "wp off allows kernel write to ro" { base_ctx with Access.wp = false } Fault.Write ro

let test_access_pks () =
  let protected_page = { kernel_page with Access.pkey = 3 } in
  let pkrs_block = Pks.set_key ~pkrs:0L ~key:3 Pks.no_access in
  let pkrs_ro = Pks.set_key ~pkrs:0L ~key:3 Pks.read_only in
  check_denied "AD blocks read" { base_ctx with Access.pkrs = pkrs_block } Fault.Read
    protected_page is_pkey_pf;
  check_denied "WD blocks write" { base_ctx with Access.pkrs = pkrs_ro } Fault.Write
    protected_page is_pkey_pf;
  check_ok "WD allows read" { base_ctx with Access.pkrs = pkrs_ro } Fault.Read protected_page;
  check_ok "pks disabled ignores keys"
    { base_ctx with Access.pks = false; pkrs = pkrs_block }
    Fault.Read protected_page;
  (* PKS never applies to instruction fetch. *)
  check_ok "fetch ignores pkey" { base_ctx with Access.pkrs = pkrs_block } Fault.Execute
    protected_page

(* ------------------------------------------------------------------ *)
(* Cpu end-to-end translation                                          *)
(* ------------------------------------------------------------------ *)

let make_cpu ?(frames = 2048) () =
  let mem = Phys_mem.create ~frames in
  let clock = Cycles.clock () in
  let cpu = Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let next = ref 1 in
  let alloc_ptp () =
    let pfn = !next in
    incr next;
    pfn
  in
  let write_pte ~pte_addr pte = Phys_mem.write_u64 mem pte_addr pte in
  let root = alloc_ptp () in
  Cpu.write_cr3 cpu ~root_pfn:root;
  let map vaddr pfn flags =
    Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr (Pte.make ~pfn flags)
  in
  (cpu, mem, map, root)

let test_cpu_translate_rw () =
  let cpu, _mem, map, _ = make_cpu () in
  map 0x40_0000 200 Pte.default_flags;
  Cpu.write_u64 cpu 0x40_0008 0xfeedL;
  Alcotest.(check int64) "va rw roundtrip" 0xfeedL (Cpu.read_u64 cpu 0x40_0008);
  expect_fault "unmapped" (fun () -> Cpu.read_u8 cpu 0xdead_0000) (function
    | Fault.Page_fault { present; _ } -> not present
    | _ -> false)

let test_cpu_dirty_accessed () =
  let cpu, mem, map, root = make_cpu () in
  map 0x50_0000 201 Pte.default_flags;
  ignore (Cpu.read_u8 cpu 0x50_0000);
  (match Page_table.walk mem ~root_pfn:root 0x50_0000 with
  | Some w ->
      Alcotest.(check bool) "accessed set" true (Pte.accessed w.Page_table.pte);
      Alcotest.(check bool) "dirty clear after read" false (Pte.dirty w.Page_table.pte)
  | None -> Alcotest.fail "lost mapping");
  Cpu.flush_tlb cpu;
  Cpu.write_u8 cpu 0x50_0000 1;
  match Page_table.walk mem ~root_pfn:root 0x50_0000 with
  | Some w -> Alcotest.(check bool) "dirty after write" true (Pte.dirty w.Page_table.pte)
  | None -> Alcotest.fail "lost mapping"

let test_cpu_user_kernel () =
  let cpu, _mem, map, _ = make_cpu () in
  Cpu.set_cr_bit cpu ~reg:`Cr4 Cr.cr4_smap true;
  Cpu.set_cr_bit cpu ~reg:`Cr4 Cr.cr4_smep true;
  Cpu.set_cr_bit cpu ~reg:`Cr0 Cr.cr0_wp true;
  map 0x1000 300 { Pte.default_flags with user = true };
  map 0x10_0000 301 Pte.default_flags;
  (* Supervisor cannot touch user page under SMAP... *)
  expect_fault "smap" (fun () -> Cpu.read_u8 cpu 0x1000) is_pf;
  (* ...unless AC is set via stac. *)
  Cpu.stac cpu;
  ignore (Cpu.read_u8 cpu 0x1000);
  Cpu.clac cpu;
  expect_fault "smap again" (fun () -> Cpu.read_u8 cpu 0x1000) is_pf;
  (* User cannot touch kernel page. *)
  cpu.Cpu.mode <- Cpu.User;
  expect_fault "user to kernel" (fun () -> Cpu.read_u8 cpu 0x10_0000) is_pf;
  ignore (Cpu.read_u8 cpu 0x1000)

let test_cpu_privileged_from_user () =
  let cpu, _mem, _map, _ = make_cpu () in
  cpu.Cpu.mode <- Cpu.User;
  expect_fault "wrmsr" (fun () -> Cpu.write_msr cpu Msr.ia32_lstar 1L) is_gp;
  expect_fault "rdmsr" (fun () -> Cpu.read_msr cpu Msr.ia32_lstar) is_gp;
  expect_fault "mov cr3" (fun () -> Cpu.write_cr3 cpu ~root_pfn:5) is_gp;
  expect_fault "mov cr4" (fun () -> Cpu.set_cr_bit cpu ~reg:`Cr4 Cr.cr4_pks true) is_gp;
  expect_fault "stac" (fun () -> Cpu.stac cpu) is_gp;
  expect_fault "lidt" (fun () -> Cpu.lidt cpu (Idt.create ())) is_gp

let test_cpu_pks_enforcement () =
  let cpu, _mem, map, _ = make_cpu () in
  Cpu.set_cr_bit cpu ~reg:`Cr4 Cr.cr4_pks true;
  Cpu.set_cr_bit cpu ~reg:`Cr0 Cr.cr0_wp true;
  map 0x20_0000 310 { Pte.default_flags with pkey = 5 };
  (* Key 5 open: access works. *)
  Cpu.write_u8 cpu 0x20_0000 7;
  (* Close key 5 for writes. *)
  Cpu.write_msr cpu Msr.ia32_pkrs (Pks.set_key ~pkrs:0L ~key:5 Pks.read_only);
  ignore (Cpu.read_u8 cpu 0x20_0000);
  expect_fault "pks wd" (fun () -> Cpu.write_u8 cpu 0x20_0000 8) is_pkey_pf;
  (* Close entirely. *)
  Cpu.write_msr cpu Msr.ia32_pkrs (Pks.set_key ~pkrs:0L ~key:5 Pks.no_access);
  expect_fault "pks ad" (fun () -> ignore (Cpu.read_u8 cpu 0x20_0000)) is_pkey_pf

let test_cpu_tlb_behaviour () =
  let cpu, _mem, map, _ = make_cpu () in
  map 0x30_0000 320 Pte.default_flags;
  ignore (Cpu.read_u8 cpu 0x30_0000);
  let misses0 = Tlb.misses cpu.Cpu.tlb in
  ignore (Cpu.read_u8 cpu 0x30_0000);
  Alcotest.(check int) "second access hits TLB" misses0 (Tlb.misses cpu.Cpu.tlb);
  Cpu.invlpg cpu 0x30_0000;
  ignore (Cpu.read_u8 cpu 0x30_0000);
  Alcotest.(check int) "invlpg forces a walk" (misses0 + 1) (Tlb.misses cpu.Cpu.tlb)

let test_cpu_tlb_staleness_semantics () =
  (* The TLB legally serves a cached translation until somebody flushes:
     this is the hazard the privop tables must close (their PTE stores pair
     with a flush — see test_kernel/test_erebor). Pin both halves here. *)
  let cpu, mem, map, root = make_cpu () in
  Cpu.set_cr_bit cpu ~reg:`Cr0 Cr.cr0_wp true;
  let vaddr = 0x60_0000 in
  map vaddr 330 Pte.default_flags;
  Cpu.write_u8 cpu vaddr 1;
  (* Downgrade the leaf to read-only behind the TLB's back. *)
  let pte_addr = Option.get (Page_table.leaf_addr mem ~root_pfn:root vaddr) in
  let ro = Pte.set_writable (Phys_mem.read_u64 mem pte_addr) false in
  Phys_mem.write_u64 mem pte_addr ro;
  (* Stale entry still honoured... *)
  Cpu.write_u8 cpu vaddr 2;
  (* ...until the flush, after which the downgrade bites. *)
  Cpu.flush_tlb cpu;
  ignore (Cpu.read_u8 cpu vaddr);
  expect_fault "write after downgrade+flush" (fun () -> Cpu.write_u8 cpu vaddr 3) is_pf

let test_cpu_hot_path_no_alloc () =
  (* The TLB-hit translate/access path must not allocate: read_u8/write_u8
     and read_into are the per-byte/per-packet hot loops of the whole
     simulator. Warm the TLB and the permission-context memo first. *)
  let cpu, _mem, map, _ = make_cpu () in
  map 0x70_0000 340 Pte.default_flags;
  let buf = Bytes.create 4096 in
  Cpu.write_u8 cpu 0x70_0000 7;
  ignore (Cpu.read_u8 cpu 0x70_0000);
  Cpu.read_into cpu 0x70_0000 buf ~off:0 ~len:4096;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Cpu.read_u8 cpu 0x70_0000);
    Cpu.write_u8 cpu 0x70_0010 5
  done;
  for _ = 1 to 100 do
    Cpu.read_into cpu 0x70_0000 buf ~off:0 ~len:4096
  done;
  let allocated = Gc.minor_words () -. before in
  (* Allow a few words of slack for the measurement itself; 20 200 accesses
     must stay far below one word per operation. *)
  Alcotest.(check bool)
    (Printf.sprintf "hot path allocates (%.0f words)" allocated)
    true (allocated < 256.0)

(* A TLB miss walks and fills without allocating: the walk travels packed
   in one int, and a CR3 load leaves the cached access-check context alone
   (it does not read CR3). Every round reloads CR3, which flushes the TLB,
   so each access below misses and fills. *)
let test_cpu_tlb_fill_no_alloc () =
  let cpu, _mem, map, root = make_cpu () in
  map 0x70_0000 340 Pte.default_flags;
  map 0x71_0000 341 Pte.default_flags;
  Cpu.write_u8 cpu 0x70_0000 7;
  ignore (Cpu.read_u8 cpu 0x71_0000);
  let fills () = Obs.Emitter.count cpu.Cpu.obs Obs.Trace.Tlb_fill in
  let fills0 = fills () in
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Cpu.write_cr3 cpu ~root_pfn:root;
    ignore (Cpu.read_u8 cpu 0x70_0000);
    Cpu.write_u8 cpu 0x71_0008 5
  done;
  let words = Gc.minor_words () -. w0 -. probe in
  Alcotest.(check int) "every access filled" 2000 (fills () - fills0);
  Alcotest.(check (float 0.0)) "zero minor words" 0.0 words

let test_cpu_scrub_regs () =
  let cpu, _mem, _map, _ = make_cpu () in
  cpu.Cpu.regs.(3) <- 42L;
  let saved = Cpu.snapshot_regs cpu in
  Cpu.scrub_regs cpu;
  Alcotest.(check int64) "scrubbed" 0L cpu.Cpu.regs.(3);
  Cpu.restore_regs cpu saved;
  Alcotest.(check int64) "restored" 42L cpu.Cpu.regs.(3)

(* ------------------------------------------------------------------ *)
(* Cet                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cet_ibt () =
  let ibt_on = Int64.to_int Msr.s_cet_ibt_bit
  and sst_only = Int64.to_int Msr.s_cet_shstk_bit in
  Alcotest.(check bool) "endbr target runs" false
    (Cet.ibt_blocks ~s_cet:ibt_on ~endbr:true);
  Alcotest.(check bool) "missing endbr raises #CP" true
    (Cet.ibt_blocks ~s_cet:ibt_on ~endbr:false);
  Alcotest.(check bool) "IBT disabled should not check" false
    (Cet.ibt_blocks ~s_cet:0 ~endbr:false);
  Alcotest.(check bool) "SST alone is not IBT" false
    (Cet.ibt_blocks ~s_cet:sst_only ~endbr:false)

(* ------------------------------------------------------------------ *)
(* Isa                                                                 *)
(* ------------------------------------------------------------------ *)

let benign_program =
  [ Isa.Endbr; Isa.Mov_imm (Isa.R0, 1234); Isa.Add (Isa.R0, Isa.R1);
    Isa.Load (Isa.R2, Isa.R0); Isa.Store (Isa.R0, Isa.R2); Isa.Call 4;
    Isa.Jmp (-2); Isa.Syscall; Isa.Cpuid; Isa.Clac; Isa.Ret ]


let test_isa_roundtrip () =
  match Isa.disassemble (Isa.assemble benign_program) with
  | Some got -> Alcotest.(check int) "count" (List.length benign_program) (List.length got)
  | None -> Alcotest.fail "disassemble failed"

let test_isa_scan_clean () =
  Alcotest.(check int) "benign program scans clean" 0
    (List.length (Isa.scan (Isa.assemble benign_program)))

let test_isa_scan_catches_sensitive () =
  List.iter
    (fun instr ->
      let code = Isa.assemble [ Isa.Nop; instr; Isa.Nop ] in
      match Isa.scan code with
      | [] -> Alcotest.failf "scan missed %a" Isa.pp_instr instr
      | { Isa.offset; _ } :: _ -> Alcotest.(check int) "offset" 4 offset)
    [ Isa.Mov_cr (0, Isa.R1); Isa.Wrmsr; Isa.Stac; Isa.Lidt; Isa.Tdcall ]

let test_isa_scan_unaligned () =
  (* A sensitive byte hidden inside data must still be flagged: the scanner
     is byte-level, not instruction-level. *)
  let code = Bytes.cat (Isa.assemble [ Isa.Nop ]) (Bytes.of_string "\xc5AB\x00") in
  Alcotest.(check bool) "unaligned tdcall byte caught" true (List.length (Isa.scan code) > 0)

let test_isa_imm_range () =
  Alcotest.check_raises "imm too large" (Invalid_argument "Isa: immediate out of 14-bit range")
    (fun () -> ignore (Isa.encode (Isa.Mov_imm (Isa.R0, 10000))));
  match Isa.decode (Isa.encode (Isa.Mov_imm (Isa.R3, -4000))) 0 with
  | Some (Isa.Mov_imm (Isa.R3, -4000)) -> ()
  | _ -> Alcotest.fail "negative immediate roundtrip"

let every_instr =
  (* One representative of every constructor, plus operand edge cases:
     extreme registers, immediate range ends, every legal CR index. *)
  [ Isa.Nop; Isa.Endbr;
    Isa.Mov_imm (Isa.R0, 0); Isa.Mov_imm (Isa.R7, 8191);
    Isa.Mov_imm (Isa.R3, -8192);
    Isa.Load (Isa.R0, Isa.R7); Isa.Store (Isa.R7, Isa.R0);
    Isa.Add (Isa.R4, Isa.R4);
    Isa.Jmp 8191; Isa.Jmp (-8192); Isa.Call 1; Isa.Call (-1);
    Isa.Ret; Isa.Syscall; Isa.Iret; Isa.Cpuid; Isa.Clac;
    Isa.Senduipi Isa.R5;
    Isa.Mov_cr (0, Isa.R1); Isa.Mov_cr (3, Isa.R2); Isa.Mov_cr (4, Isa.R7);
    Isa.Wrmsr; Isa.Stac; Isa.Lidt; Isa.Tdcall ]

let test_isa_roundtrip_every_opcode () =
  List.iter
    (fun instr ->
      match Isa.decode (Isa.encode instr) 0 with
      | Some got when got = instr -> ()
      | Some got ->
          Alcotest.failf "%a decoded as %a" Isa.pp_instr instr Isa.pp_instr got
      | None -> Alcotest.failf "%a failed to decode" Isa.pp_instr instr)
    every_instr

let test_isa_decode_rejects () =
  let slot l = Bytes.of_string (String.init 4 (fun i -> Char.chr (List.nth l i))) in
  (* Unknown opcode byte. *)
  Alcotest.(check bool) "unknown opcode" true (Isa.decode (slot [0x7f;0;0;0]) 0 = None);
  (* Operand register code out of range. *)
  Alcotest.(check bool) "bad reg (load)" true (Isa.decode (slot [0x03;8;0;0]) 0 = None);
  Alcotest.(check bool) "bad reg (mov_imm)" true (Isa.decode (slot [0x02;9;0;0]) 0 = None);
  (* CR index outside {0,3,4}. *)
  Alcotest.(check bool) "bad cr index" true (Isa.decode (slot [0xc0;2;0;0]) 0 = None);
  (* Immediate bytes with the top bit set are not base-128 digits. *)
  Alcotest.(check bool) "non-canonical imm (mov_imm)" true
    (Isa.decode (slot [0x02;0;0;0xc8]) 0 = None);
  Alcotest.(check bool) "non-canonical imm (call)" true
    (Isa.decode (slot [0x07;2;0xf8;0]) 0 = None);
  (* Truncated tail and out-of-range offsets. *)
  let one = Isa.encode Isa.Nop in
  Alcotest.(check bool) "truncated" true (Isa.decode one 1 = None);
  Alcotest.(check bool) "negative offset" true (Isa.decode one (-4) = None);
  Alcotest.(check bool) "past end" true (Isa.decode one 4 = None)

(* ------------------------------------------------------------------ *)
(* Icode: decoded-instruction cache                                    *)
(* ------------------------------------------------------------------ *)

let test_icode_decode_matches_isa () =
  (* Every slot of the decoded program re-materializes to exactly what the
     one-shot decoder sees. *)
  let code = Isa.assemble every_instr in
  match (Icode.decode code, Isa.disassemble code) with
  | Ok p, Some instrs ->
      Alcotest.(check int) "length" (List.length instrs) (Icode.length p);
      List.iteri
        (fun i instr ->
          if Icode.instr p i <> instr then
            Alcotest.failf "slot %d: %a <> %a" i Isa.pp_instr (Icode.instr p i)
              Isa.pp_instr instr)
        instrs
  | Error off, _ -> Alcotest.failf "icode decode failed at +%d" off
  | _, None -> Alcotest.fail "disassemble failed"

let test_icode_decode_rejects () =
  (* The cache decoder rejects exactly what Isa.decode rejects, reporting
     the first bad slot's byte offset. *)
  let bad = Bytes.cat (Isa.assemble [ Isa.Nop; Isa.Ret ]) (Bytes.make 4 '\x7f') in
  (match Icode.decode bad with
  | Error 8 -> ()
  | Error off -> Alcotest.failf "wrong offset %d" off
  | Ok _ -> Alcotest.fail "undecodable slot accepted");
  match Icode.decode (Bytes.make 6 '\x00') with
  | Error 4 -> () (* trailing partial slot *)
  | Error off -> Alcotest.failf "partial slot: wrong offset %d" off
  | Ok _ -> Alcotest.fail "partial slot accepted"

(* A branchy program exercising every interpreter path: registers, scratch
   memory, subroutine call/ret, a skipped-over external call, sensitive
   retires. *)
let branchy_program =
  [ Isa.Endbr;                       (* 0 *)
    Isa.Mov_imm (Isa.R0, 24);        (* 1 *)
    Isa.Mov_imm (Isa.R1, 100);       (* 2 *)
    Isa.Store (Isa.R0, Isa.R1);      (* 3: mem[3] <- 100 *)
    Isa.Call 4;                      (* 4: -> 8 (subroutine) *)
    Isa.Call 100;                    (* 5: external, falls through *)
    Isa.Wrmsr;                       (* 6: sensitive *)
    Isa.Ret;                         (* 7: top-level -> stop *)
    Isa.Load (Isa.R2, Isa.R0);       (* 8: r2 <- mem[3] *)
    Isa.Add (Isa.R2, Isa.R1);        (* 9: r2 = 200 *)
    Isa.Ret ]                        (* 10: return to 5 *)

let test_icode_run_equivalence () =
  let code = Isa.assemble branchy_program in
  let p = match Icode.decode code with Ok p -> p | Error _ -> assert false in
  let run_with runner =
    let st = Icode.make_state () in
    let sensitive = ref 0 in
    Icode.set_sensitive_hook st (fun _ -> incr sensitive);
    let retired = runner st in
    (retired, !sensitive, List.init 8 (Icode.reg st))
  in
  let fast = run_with (fun st -> Icode.run p st ~entry:0 ~fuel:64) in
  let slow = run_with (fun st -> Icode.run_undecoded code st ~entry:0 ~fuel:64) in
  let retired, sensitive, regs = fast in
  Alcotest.(check int) "retired" 11 retired;
  Alcotest.(check int) "sensitive retires" 1 sensitive;
  Alcotest.(check int) "r2 through call/load/add" 200 (List.nth regs 2);
  Alcotest.(check bool) "decoded = undecoded" true (fast = slow)

let test_icode_cache_shares () =
  let code = Isa.assemble branchy_program in
  let h0, _ = Icode.cache_stats () in
  match (Icode.of_bytes code, Icode.of_bytes (Bytes.copy code)) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "same decoded program" true (a == b);
      let h1, _ = Icode.cache_stats () in
      Alcotest.(check bool) "second lookup hit" true (h1 > h0)
  | _ -> Alcotest.fail "decode failed"

let test_icode_steady_state_no_alloc () =
  (* The tentpole property: with a warm decoded program, the interpreter
     loop allocates nothing — minor words must not move across 10k runs. *)
  let code = Isa.assemble branchy_program in
  let p = match Icode.of_bytes code with Ok p -> p | Error _ -> assert false in
  let st = Icode.make_state () in
  ignore (Icode.run p st ~entry:0 ~fuel:64);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Icode.run p st ~entry:0 ~fuel:64)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "zero minor words" 0.0 (w1 -. w0)

let test_icode_fuel_bounds_runaway () =
  (* Jmp 0 spins in place; fuel must bound it. *)
  let code = Isa.assemble [ Isa.Jmp 0 ] in
  let p = match Icode.decode code with Ok p -> p | Error _ -> assert false in
  let st = Icode.make_state () in
  Alcotest.(check int) "fuel cap" 1000 (Icode.run p st ~entry:0 ~fuel:1000)

(* The Fig. 5 gate listing as the monitor assembles it. *)
let gate_code =
  lazy
    (let cpu, _, _, _ = make_cpu () in
     Erebor.Gate.code_bytes
       (Erebor.Gate.create ~cpu ~code_base:0x1000
          ~backend:(Erebor.Isolation.create Erebor.Isolation.Pks ~cpu)
          ()))

(* Decoder inputs: random bytes, or the gate listing with a few bytes
   overwritten, inserted or cut. Most random slots start with a real
   opcode and most operand bytes are register-sized, so whole programs
   decode often enough to run; almost a third of operand bytes have the
   top bit set, which no assembler emits. *)
let decoder_input_gen =
  let open QCheck.Gen in
  let opcodes = [ 0x00; 0x01; 0x08; 0x09; 0x0a; 0x0b; 0x0c; 0xc1; 0xc2; 0xc4; 0xc5 ] in
  (* Opcodes that carry operands, where decoding can go wrong. *)
  let operand_opcodes = [ 0x02; 0x03; 0x04; 0x05; 0x06; 0x07; 0x0d; 0xc0 ] in
  let operand =
    map Char.chr
      (frequency [ (3, int_bound 7); (1, int_bound 255); (1, int_range 0x80 0xff) ])
  in
  let slot =
    frequency
      [ (1, string_size ~gen:char (return 4));
        (5, map2 (fun op operands -> String.make 1 (Char.chr op) ^ operands)
              (frequency [ (1, oneofl opcodes); (2, oneofl operand_opcodes) ])
              (string_size ~gen:operand (return 3))) ]
  in
  let random_bytes =
    map2 (fun slots tail -> String.concat "" slots ^ tail)
      (list_size (0 -- 6) slot)
      (frequency [ (5, return ""); (1, string_size ~gen:char (1 -- 3)) ])
  in
  let edit =
    oneof
      [ map2 (fun pos b -> `Set (pos, b)) nat (int_bound 255);
        map2 (fun pos b -> `Insert (pos, b)) nat (int_bound 255);
        map (fun pos -> `Cut pos) nat ]
  in
  let apply s = function
    | `Set (pos, b) when s <> "" ->
        String.mapi (fun i c -> if i = pos mod String.length s then Char.chr b else c) s
    | `Insert (pos, b) ->
        let pos = pos mod (String.length s + 1) in
        String.sub s 0 pos ^ String.make 1 (Char.chr b)
        ^ String.sub s pos (String.length s - pos)
    | `Cut pos when s <> "" -> String.sub s 0 (pos mod String.length s)
    | _ -> s
  in
  let gate_mutant =
    map
      (fun edits ->
        List.fold_left apply (Bytes.to_string (Lazy.force gate_code)) edits)
      (list_size (1 -- 4) edit)
  in
  oneof [ random_bytes; gate_mutant ]

(* qcheck: the decoders are total on arbitrary bytes; the cache decodes a
   blob exactly when every slot decodes (reporting the first bad slot) and
   then re-materializes every slot as [Isa.decode] reads it; and the
   threaded interpreter and the per-step reference agree on retired
   count, sensitive retires and registers from any entry under any
   fuel. *)
let prop_decoders_total_and_agree =
  QCheck.Test.make ~name:"Isa/Icode decoders total, run = run_undecoded"
    ~count:1000
    QCheck.(
      triple
        (make ~print:(fun s -> Printf.sprintf "%S" s) decoder_input_gen)
        (int_range (-1) 8) (int_bound 200))
    (fun (s, entry, fuel) ->
      let b = Bytes.of_string s in
      let len = Bytes.length b in
      for off = -4 to len + 4 do
        ignore (Isa.decode b off)
      done;
      let n = len / Isa.instr_size in
      let rec first_bad i =
        if i = n then
          if n * Isa.instr_size = len then None else Some (n * Isa.instr_size)
        else if Isa.decode b (i * Isa.instr_size) = None then
          Some (i * Isa.instr_size)
        else first_bad (i + 1)
      in
      match (Icode.decode b, first_bad 0) with
      | Error off, Some off' -> off = off'
      | Error _, None | Ok _, Some _ -> false
      | Ok p, None ->
          List.for_all
            (fun i -> Isa.decode b (i * Isa.instr_size) = Some (Icode.instr p i))
            (List.init n Fun.id)
          &&
          let run_with runner =
            let st = Icode.make_state () in
            let sensitive = ref [] in
            Icode.set_sensitive_hook st (fun op -> sensitive := op :: !sensitive);
            let retired = runner st in
            (retired, !sensitive, List.init 8 (Icode.reg st))
          in
          let ((retired, _, _) as fast) =
            run_with (fun st -> Icode.run p st ~entry ~fuel)
          in
          let slow = run_with (fun st -> Icode.run_undecoded b st ~entry ~fuel) in
          retired <= fuel && fast = slow)

let prop_isa_benign_scan_clean =
  (* Any program assembled from benign instructions scans clean. *)
  let benign_gen =
    QCheck.Gen.(
      oneof
        [ return Isa.Nop; return Isa.Endbr; return Isa.Ret; return Isa.Syscall;
          return Isa.Cpuid; return Isa.Clac; return Isa.Iret;
          map (fun v -> Isa.Mov_imm (Isa.R1, v)) (int_range (-8000) 8000);
          map (fun v -> Isa.Jmp v) (int_range (-8000) 8000) ])
  in
  QCheck.Test.make ~name:"benign assembly scans clean" ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 50) benign_gen))
    (fun prog -> Isa.scan (Isa.assemble prog) = [])

(* ------------------------------------------------------------------ *)
(* Image                                                               *)
(* ------------------------------------------------------------------ *)

let sample_image =
  {
    Image.entry = 0x1000;
    sections =
      [
        { Image.name = ".text"; vaddr = 0x1000; executable = true; writable = false;
          data = Isa.assemble benign_program };
        { Image.name = ".data"; vaddr = 0x4000; executable = false; writable = true;
          data = Bytes.of_string "hello data" };
      ];
  }

let test_image_roundtrip () =
  match Image.parse (Image.serialize sample_image) with
  | Error e -> Alcotest.fail e
  | Ok img ->
      Alcotest.(check int) "entry" 0x1000 img.Image.entry;
      Alcotest.(check int) "sections" 2 (List.length img.Image.sections);
      Alcotest.(check int) "one exec section" 1 (List.length (Image.executable_sections img));
      (match Image.find_section img ".data" with
      | Some s -> Alcotest.(check string) "data" "hello data" (Bytes.to_string s.Image.data)
      | None -> Alcotest.fail "missing .data")

let test_image_rejects () =
  let good = Image.serialize sample_image in
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  (match Image.parse bad_magic with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match Image.parse (Bytes.sub good 0 (Bytes.length good - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated accepted");
  let overlapping =
    { sample_image with
      Image.sections =
        [ { Image.name = "a"; vaddr = 0x1000; executable = false; writable = true;
            data = Bytes.make 100 'x' };
          { Image.name = "b"; vaddr = 0x1010; executable = false; writable = true;
            data = Bytes.make 100 'y' } ] }
  in
  match Image.parse (Image.serialize overlapping) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping sections accepted"

(* Mutated images must parse to Ok or Error, never crash. *)
let prop_image_fuzz =
  QCheck.Test.make ~name:"image parser total on mutations" ~count:200
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (pos, value) ->
      let good = Hw.Image.serialize sample_image in
      let mutated = Bytes.copy good in
      let pos = pos mod Bytes.length mutated in
      Bytes.set mutated pos (Char.chr value);
      match Hw.Image.parse mutated with Ok _ | Error _ -> true)

let prop_image_roundtrip =
  let section_gen =
    QCheck.Gen.(
      map3
        (fun name len exec ->
          (* vaddr assigned later to guarantee non-overlap *)
          (String.map (fun c -> Char.chr (0x41 + (Char.code c mod 26))) name, len, exec))
        (string_size (1 -- 8)) (int_range 0 200) bool)
  in
  QCheck.Test.make ~name:"image serialize/parse roundtrip" ~count:50
    (QCheck.make QCheck.Gen.(list_size (0 -- 6) section_gen))
    (fun specs ->
      let _, sections =
        List.fold_left
          (fun (va, acc) (name, len, exec) ->
            ( va + len + 0x1000,
              { Image.name; vaddr = va; executable = exec; writable = not exec;
                data = Bytes.make len 'z' }
              :: acc ))
          (0x1000, []) specs
      in
      let img = { Image.entry = 0x1000; sections = List.rev sections } in
      match Image.parse (Image.serialize img) with
      | Ok got -> got = img
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Apic / Uintr / Idt                                                  *)
(* ------------------------------------------------------------------ *)

let test_apic_fires () =
  let clock = Cycles.clock () in
  let apic = Apic.create clock ~period:1000 in
  Alcotest.(check bool) "not pending initially" false (Apic.pending apic);
  Cycles.advance clock 999;
  Alcotest.(check bool) "not yet" false (Apic.pending apic);
  Cycles.advance clock 1;
  Alcotest.(check bool) "pending at deadline" true (Apic.pending apic);
  Apic.acknowledge apic;
  Alcotest.(check int) "fired once" 1 (Apic.fired_count apic);
  Alcotest.(check bool) "re-armed" false (Apic.pending apic);
  (* A long sleep coalesces into one pending interrupt. *)
  Cycles.advance clock 10_000;
  Alcotest.(check bool) "pending after sleep" true (Apic.pending apic);
  Apic.acknowledge apic;
  Alcotest.(check bool) "coalesced" false (Apic.pending apic);
  Alcotest.(check int) "fired twice total" 2 (Apic.fired_count apic)

let test_uintr_gating () =
  let msr = Msr.create () in
  (match Uintr.senduipi ~msr ~slot:3 with
  | Uintr.Faulted (Fault.General_protection _) -> ()
  | _ -> Alcotest.fail "send with invalid TT accepted");
  Msr.write msr Msr.ia32_uintr_tt Msr.uintr_tt_valid_bit;
  (match Uintr.senduipi ~msr ~slot:3 with
  | Uintr.Delivered 3 -> ()
  | _ -> Alcotest.fail "valid send failed");
  match Uintr.senduipi ~msr ~slot:99 with
  | Uintr.Faulted _ -> ()
  | _ -> Alcotest.fail "bad slot accepted"

let test_idt_dispatch () =
  let idt = Idt.create () in
  Idt.set idt Idt.vec_pf ~handler:0xAA00;
  Alcotest.(check int) "deliver" 0xAA00 (Idt.deliver idt Idt.vec_pf);
  expect_fault "absent vector" (fun () -> Idt.deliver idt Idt.vec_timer) is_gp;
  let snapshot = Idt.copy idt in
  Idt.clear idt Idt.vec_pf;
  expect_fault "cleared" (fun () -> Idt.deliver idt Idt.vec_pf) is_gp;
  Alcotest.(check int) "copy unaffected" 0xAA00 (Idt.deliver snapshot Idt.vec_pf)

let test_cycles_clock () =
  let clock = Cycles.clock () in
  Cycles.advance clock 500;
  Alcotest.(check int) "advance" 500 (Cycles.now clock);
  Alcotest.check_raises "negative" (Invalid_argument "Cycles.advance: negative duration")
    (fun () -> Cycles.advance clock (-1));
  (* Table 3/4 calibration identities. *)
  Alcotest.(check int) "mmu total" 1345 Cycles.Cost.(emc_roundtrip + emc_service_mmu);
  Alcotest.(check int) "cr total" 1593 Cycles.Cost.(emc_roundtrip + emc_service_cr);
  Alcotest.(check int) "msr total" 1613 Cycles.Cost.(emc_roundtrip + emc_service_msr);
  Alcotest.(check int) "idt total" 1369 Cycles.Cost.(emc_roundtrip + emc_service_idt);
  Alcotest.(check int) "smap total" 1291 Cycles.Cost.(emc_roundtrip + emc_service_smap);
  Alcotest.(check int) "ghci total" 128081 Cycles.Cost.(emc_roundtrip + emc_service_ghci)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Frame tables against the flat arrays they replaced                  *)
(* ------------------------------------------------------------------ *)

(* The flat reference: [Phys_mem] as it was with one slot per frame, the
   same loops and the same bounds rules, so every partial effect of a
   transfer that runs out of range matches too. The one intended
   difference is [page_is_backed], which raised on a pfn outside
   [valid_pfn] and now reads [false]. *)
module Flat_mem = struct
  type t = { frames : int; pages : bytes array; mutable backed : int }

  let create frames = { frames; pages = Array.make frames Bytes.empty; backed = 0 }

  let check t addr =
    if addr < 0 || addr lsr 12 >= t.frames then invalid_arg "Flat_mem: out of range"

  let backing t pfn =
    let b = t.pages.(pfn) in
    if Bytes.length b <> 0 then b
    else begin
      let b = Bytes.make 4096 '\000' in
      t.pages.(pfn) <- b;
      t.backed <- t.backed + 1;
      b
    end

  let read_u64 t addr =
    check t addr;
    if addr land 4095 > 4088 then invalid_arg "Flat_mem: crosses page";
    let b = t.pages.(addr lsr 12) in
    if Bytes.length b = 0 then 0L else Bytes.get_int64_le b (addr land 4095)

  let write_u64 t addr v =
    check t addr;
    if addr land 4095 > 4088 then invalid_arg "Flat_mem: crosses page";
    Bytes.set_int64_le (backing t (addr lsr 12)) (addr land 4095) v

  let blit_to t addr dst ~off ~len =
    if len < 0 || off < 0 || off + len > Bytes.length dst then invalid_arg "Flat_mem: slice";
    let copied = ref 0 in
    while !copied < len do
      let a = addr + !copied in
      check t a;
      let poff = a land 4095 in
      let chunk = min (4096 - poff) (len - !copied) in
      let b = t.pages.(a lsr 12) in
      if Bytes.length b = 0 then Bytes.fill dst (off + !copied) chunk '\000'
      else Bytes.blit b poff dst (off + !copied) chunk;
      copied := !copied + chunk
    done

  let blit_from t addr src ~off ~len =
    if len < 0 || off < 0 || off + len > Bytes.length src then invalid_arg "Flat_mem: slice";
    let copied = ref 0 in
    while !copied < len do
      let a = addr + !copied in
      check t a;
      let poff = a land 4095 in
      let chunk = min (4096 - poff) (len - !copied) in
      Bytes.blit src (off + !copied) (backing t (a lsr 12)) poff chunk;
      copied := !copied + chunk
    done

  let copy t ~src ~dst ~len =
    if len < 0 then invalid_arg "Flat_mem: negative length";
    let copied = ref 0 in
    while !copied < len do
      let sa = src + !copied and da = dst + !copied in
      check t sa;
      check t da;
      let chunk = min (min (4096 - (sa land 4095)) (4096 - (da land 4095))) (len - !copied) in
      let sb = t.pages.(sa lsr 12) in
      (if Bytes.length sb = 0 then begin
         let db = t.pages.(da lsr 12) in
         if Bytes.length db <> 0 then Bytes.fill db (da land 4095) chunk '\000'
       end
       else Bytes.blit sb (sa land 4095) (backing t (da lsr 12)) (da land 4095) chunk);
      copied := !copied + chunk
    done

  let zero_page t pfn =
    if pfn < 0 || pfn >= t.frames then invalid_arg "Flat_mem: bad pfn";
    let b = t.pages.(pfn) in
    if Bytes.length b <> 0 then Bytes.fill b 0 4096 '\000'

  let page_is_backed t pfn = pfn >= 0 && pfn < t.frames && Bytes.length t.pages.(pfn) <> 0
end

(* Not a multiple of 512: the last leaf is partly past the end of RAM. *)
let model_frames = 1300

(* The pfns where the two-level rule could go wrong: both ends of a leaf,
   both ends of RAM, just past it, and the hostile extremes. *)
let edge_pfns =
  [ -1; 0; 1; 511; 512; 513; 1023; 1024; model_frames - 1; model_frames;
    model_frames + 1; max_int; min_int ]

let gen_pfn =
  QCheck.Gen.(
    frequency [ (3, oneofl edge_pfns); (2, int_range 0 (model_frames - 1)) ])

let gen_addr =
  QCheck.Gen.(
    map2
      (fun pfn off -> (pfn lsl 12) + off)
      gen_pfn
      (frequency [ (2, oneofl [ 0; 8; 4088; 4092; 4095 ]); (1, map (fun w -> 8 * w) (int_bound 511)) ]))

type mem_op =
  | Write_u64 of int * int64
  | Read_u64 of int
  | Blit_from of int * int
  | Blit_to of int * int
  | Copy of int * int * int
  | Zero_page of int
  | Page_is_backed of int

let gen_mem_op =
  let open QCheck.Gen in
  let len = frequency [ (2, int_bound 64); (1, int_range 4000 9000) ] in
  frequency
    [
      (4, map2 (fun a v -> Write_u64 (a, v)) gen_addr (map Int64.of_int int));
      (3, map (fun a -> Read_u64 a) gen_addr);
      (2, map2 (fun a n -> Blit_from (a, n)) gen_addr len);
      (2, map2 (fun a n -> Blit_to (a, n)) gen_addr len);
      (2, map3 (fun s d n -> Copy (s, d, n)) gen_addr gen_addr len);
      (1, map (fun p -> Zero_page p) gen_pfn);
      (2, map (fun p -> Page_is_backed p) gen_pfn);
    ]

let show_mem_op = function
  | Write_u64 (a, v) -> Printf.sprintf "write_u64 0x%x %Ld" a v
  | Read_u64 a -> Printf.sprintf "read_u64 0x%x" a
  | Blit_from (a, n) -> Printf.sprintf "blit_from 0x%x %d" a n
  | Blit_to (a, n) -> Printf.sprintf "blit_to 0x%x %d" a n
  | Copy (s, d, n) -> Printf.sprintf "copy 0x%x -> 0x%x %d" s d n
  | Zero_page p -> Printf.sprintf "zero_page %d" p
  | Page_is_backed p -> Printf.sprintf "page_is_backed %d" p

(* An operation's observable outcome: its result, or the fact that it
   raised [Invalid_argument]. Any other exception escapes and fails. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let prop_phys_mem_flat_model =
  QCheck.Test.make ~name:"phys_mem frame table agrees with the flat array" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_mem_op))
    (fun ops ->
      let mem = Phys_mem.create ~frames:model_frames in
      let flat = Flat_mem.create model_frames in
      let pattern n = Bytes.init n (fun i -> Char.chr ((i * 31 + n) land 0xff)) in
      let agree name a b =
        if a <> b then QCheck.Test.fail_reportf "%s: frame table and flat array disagree" name
      in
      List.iter
        (fun op ->
          let name = show_mem_op op in
          match op with
          | Write_u64 (a, v) ->
              agree name
                (outcome (fun () -> Phys_mem.write_u64 mem a v))
                (outcome (fun () -> Flat_mem.write_u64 flat a v))
          | Read_u64 a ->
              agree name
                (outcome (fun () -> Phys_mem.read_u64 mem a))
                (outcome (fun () -> Flat_mem.read_u64 flat a))
          | Blit_from (a, n) ->
              let src = pattern n in
              agree name
                (outcome (fun () -> Phys_mem.blit_from mem a src ~off:0 ~len:n))
                (outcome (fun () -> Flat_mem.blit_from flat a src ~off:0 ~len:n))
          | Blit_to (a, n) ->
              let d1 = Bytes.make n 'x' and d2 = Bytes.make n 'x' in
              agree name
                (outcome (fun () -> Phys_mem.blit_to mem a d1 ~off:0 ~len:n))
                (outcome (fun () -> Flat_mem.blit_to flat a d2 ~off:0 ~len:n));
              agree (name ^ " (bytes)") d1 d2
          | Copy (s, d, n) ->
              agree name
                (outcome (fun () -> Phys_mem.copy mem ~src:s ~dst:d ~len:n))
                (outcome (fun () -> Flat_mem.copy flat ~src:s ~dst:d ~len:n))
          | Zero_page p ->
              agree name
                (outcome (fun () -> Phys_mem.zero_page mem p))
                (outcome (fun () -> Flat_mem.zero_page flat p))
          | Page_is_backed p ->
              agree name
                (outcome (fun () -> Phys_mem.page_is_backed mem p))
                (Ok (Flat_mem.page_is_backed flat p)))
        ops;
      agree "backed_count" (Phys_mem.backed_count mem) flat.Flat_mem.backed;
      for pfn = 0 to model_frames - 1 do
        agree (Printf.sprintf "page_is_backed %d" pfn)
          (Phys_mem.page_is_backed mem pfn) (Flat_mem.page_is_backed flat pfn);
        if Flat_mem.page_is_backed flat pfn then
          agree (Printf.sprintf "contents of %d" pfn)
            (Phys_mem.read_bytes mem (pfn lsl 12) 4096)
            flat.Flat_mem.pages.(pfn)
      done;
      true)

(* TME-MK key tags against a flat array: [tag] raises outside the frames
   (or for a keyid past the PTE field), [untag] and [tag_of] read
   out-of-range frames as untagged. *)
let prop_tme_flat_model =
  QCheck.Test.make ~name:"tme tag table agrees with the flat array" ~count:300
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 40)
            (pair (int_bound 2) (pair gen_pfn (oneofl [ 0; 1; 5; (1 lsl Pte.keyid_bits) - 1; 1 lsl Pte.keyid_bits ])))))
    (fun ops ->
      let tme = Tme.create ~frames:model_frames in
      let flat = Array.make model_frames 0 in
      let in_range pfn = pfn >= 0 && pfn < model_frames in
      let ok =
        List.for_all
          (fun (kind, (pfn, keyid)) ->
            match kind with
            | 0 ->
                let expect =
                  if keyid < 0 || keyid >= 1 lsl Pte.keyid_bits || not (in_range pfn) then
                    Error ()
                  else begin
                    flat.(pfn) <- keyid;
                    Ok ()
                  end
                in
                outcome (fun () -> Tme.tag tme ~pfn keyid) = expect
            | 1 ->
                if in_range pfn then flat.(pfn) <- 0;
                outcome (fun () -> Tme.untag tme ~pfn) = Ok ()
            | _ -> Tme.tag_of tme ~pfn = if in_range pfn then flat.(pfn) else 0)
          ops
      in
      ok && List.for_all (fun pfn -> Tme.tag_of tme ~pfn = flat.(pfn))
              (List.init model_frames Fun.id))

(* A hostile or out-of-range pfn is simply not backed: no frame there was
   ever written. (The flat version raised [Invalid_argument "index out of
   bounds"] from its array access.) *)
let test_page_is_backed_out_of_range () =
  let mem = Phys_mem.create ~frames:model_frames in
  Phys_mem.write_u64 mem ((model_frames - 1) lsl 12) 1L;
  List.iter
    (fun pfn ->
      Alcotest.(check bool) (Printf.sprintf "pfn %d" pfn) false (Phys_mem.page_is_backed mem pfn))
    [ -1; min_int; model_frames; model_frames + 1; 1 lsl 40; max_int ];
  Alcotest.(check bool) "last frame backed" true
    (Phys_mem.page_is_backed mem (model_frames - 1))

let () =
  Alcotest.run "hw"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
          Alcotest.test_case "cross page" `Quick test_phys_mem_cross_page;
          Alcotest.test_case "bounds" `Quick test_phys_mem_bounds;
          Alcotest.test_case "zero page" `Quick test_phys_mem_zero;
          Alcotest.test_case "blit windows" `Quick test_phys_mem_blit;
          Alcotest.test_case "page_is_backed out of range" `Quick
            test_page_is_backed_out_of_range;
          qt prop_phys_mem_flat_model;
          qt prop_tme_flat_model;
        ] );
      ( "pte",
        [ Alcotest.test_case "roundtrip" `Quick test_pte_roundtrip; qt prop_pte_flags ] );
      ( "pks",
        [
          Alcotest.test_case "encode/decode" `Quick test_pks_encode_decode;
          Alcotest.test_case "permits" `Quick test_pks_permits;
          Alcotest.test_case "set key" `Quick test_pks_set_key;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "map/walk" `Quick test_pt_map_walk;
          Alcotest.test_case "unmap" `Quick test_pt_unmap;
          Alcotest.test_case "update" `Quick test_pt_update;
          Alcotest.test_case "distinct vaddrs" `Quick test_pt_distinct_vaddrs;
          qt prop_pt_model;
          qt prop_pt_matches_reference;
          Alcotest.test_case "probes allocation-free" `Quick test_pt_probe_no_alloc;
        ] );
      ( "access",
        [
          Alcotest.test_case "user mode" `Quick test_access_user_mode;
          Alcotest.test_case "smep/smap" `Quick test_access_smep_smap;
          Alcotest.test_case "wp" `Quick test_access_wp;
          Alcotest.test_case "pks" `Quick test_access_pks;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "translate rw" `Quick test_cpu_translate_rw;
          Alcotest.test_case "dirty/accessed" `Quick test_cpu_dirty_accessed;
          Alcotest.test_case "user/kernel separation" `Quick test_cpu_user_kernel;
          Alcotest.test_case "privileged from user" `Quick test_cpu_privileged_from_user;
          Alcotest.test_case "pks enforcement" `Quick test_cpu_pks_enforcement;
          Alcotest.test_case "tlb behaviour" `Quick test_cpu_tlb_behaviour;
          Alcotest.test_case "tlb staleness semantics" `Quick test_cpu_tlb_staleness_semantics;
          Alcotest.test_case "hot path allocation-free" `Quick test_cpu_hot_path_no_alloc;
          Alcotest.test_case "tlb fill allocation-free" `Quick test_cpu_tlb_fill_no_alloc;
          Alcotest.test_case "scrub regs" `Quick test_cpu_scrub_regs;
        ] );
      ( "cet",
        [
          Alcotest.test_case "ibt" `Quick test_cet_ibt;
        ] );
      ( "isa",
        [
          Alcotest.test_case "roundtrip" `Quick test_isa_roundtrip;
          Alcotest.test_case "scan clean" `Quick test_isa_scan_clean;
          Alcotest.test_case "scan sensitive" `Quick test_isa_scan_catches_sensitive;
          Alcotest.test_case "scan unaligned" `Quick test_isa_scan_unaligned;
          Alcotest.test_case "imm range" `Quick test_isa_imm_range;
          Alcotest.test_case "roundtrip every opcode" `Quick
            test_isa_roundtrip_every_opcode;
          Alcotest.test_case "decode rejects" `Quick test_isa_decode_rejects;
          qt prop_isa_benign_scan_clean;
        ] );
      ( "icode",
        [
          Alcotest.test_case "decode matches isa" `Quick
            test_icode_decode_matches_isa;
          Alcotest.test_case "decode rejects" `Quick test_icode_decode_rejects;
          Alcotest.test_case "run equivalence" `Quick test_icode_run_equivalence;
          Alcotest.test_case "cache shares programs" `Quick
            test_icode_cache_shares;
          Alcotest.test_case "steady state allocation-free" `Quick
            test_icode_steady_state_no_alloc;
          Alcotest.test_case "fuel bounds runaway" `Quick
            test_icode_fuel_bounds_runaway;
          qt prop_decoders_total_and_agree;
        ] );
      ( "image",
        [
          Alcotest.test_case "roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "rejects" `Quick test_image_rejects;
          qt prop_image_roundtrip;
          qt prop_image_fuzz;
        ] );
      ( "misc",
        [
          Alcotest.test_case "apic" `Quick test_apic_fires;
          Alcotest.test_case "uintr" `Quick test_uintr_gating;
          Alcotest.test_case "idt" `Quick test_idt_dispatch;
          Alcotest.test_case "cycles" `Quick test_cycles_clock;
        ] );
    ]
