(* Flamegraph export for the attribution tree: Brendan-Gregg collapsed-stack
   lines ("a;b;c self\n", one per context with nonzero self-cycles, ready
   for flamegraph.pl / speedscope / inferno), plus a plain ASCII tree for
   terminal inspection. Frames are "domain:phase" so the privilege split is
   visible at every depth. *)

let frame p = Trace.domain_name (Trace.phase_domain p) ^ ":" ^ Trace.phase_name p

(* The label of the tree's root context. *)
let root = "erebor"

let collapsed attrib =
  let buf = Buffer.create 1024 in
  let rec go prefix (v : Attrib.view) =
    let label =
      match v.Attrib.vphase with
      | None -> prefix
      | Some p -> prefix ^ ";" ^ frame p
    in
    if v.Attrib.vself > 0 then begin
      Buffer.add_string buf label;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int v.Attrib.vself);
      Buffer.add_char buf '\n'
    end;
    List.iter (go label) v.Attrib.vkids
  in
  go root (Attrib.view attrib);
  Buffer.contents buf

let tree attrib =
  let v = Attrib.view attrib in
  let grand = max 1 v.Attrib.vtotal in
  let buf = Buffer.create 1024 in
  let pct c = 100.0 *. float_of_int c /. float_of_int grand in
  let rec go indent (v : Attrib.view) =
    let label =
      match v.Attrib.vphase with None -> root | Some p -> frame p
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%-24s %14d cy %6.2f%%" indent label v.Attrib.vtotal
         (pct v.Attrib.vtotal));
    if v.Attrib.vkids <> [] && v.Attrib.vself > 0 then
      Buffer.add_string buf (Printf.sprintf "  (self %d)" v.Attrib.vself);
    Buffer.add_char buf '\n';
    List.iter (go (indent ^ "  ")) v.Attrib.vkids
  in
  go "" v;
  Buffer.contents buf
