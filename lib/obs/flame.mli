(** Flamegraph export for the {!Attrib} context tree. *)

val collapsed : Attrib.t -> string
(** Brendan-Gregg collapsed-stack format: one ["erebor;frame;... self\n"]
    line per context with nonzero self-cycles (root line included when it
    holds unattributed cycles), deterministic order, counts summing to
    {!Attrib.total}. Feed to [flamegraph.pl], speedscope or inferno. *)

val tree : Attrib.t -> string
(** Indented ASCII tree: per context, subtree total cycles and share of the
    grand total (plus self-cycles where they differ). *)
