(** The indexing rule for per-frame state, shared by every table the
    simulator keeps per physical frame ({!Phys_mem}'s backing pages,
    {!Tme}'s key tags, the monitor's guard classes and confined-mapping
    bits).

    A table is two-level. The directory holds one slot per run of
    {!leaf_size} frames, indexed by [pfn lsr 9]. A slot starts out
    pointing at one shared, read-only {e empty leaf} that holds the table's
    default value in every entry, and gets its own leaf on the first store
    of a non-default value into its run. The directory itself starts empty;
    the first such store gives it {!leaf_size} slots (1 GiB of frames), and
    it doubles from there, capped at [ceil (frames / leaf_size)], to cover
    the highest run stored into. A table therefore costs host memory in proportion to the
    frames written, not to the size of RAM.

    A lookup is {!leaf} (one compare, one directory load), then one load
    from the leaf it returns: every pfn the directory does not cover — any
    negative pfn, anything past the highest run stored into — gets the
    empty leaf and so reads as the default. Owners keep the directory in a
    mutable field of their own record and index the leaf themselves,
    against its concrete element type: an access through a generic
    ['a array] pays a float-array tag check, and a store a write barrier
    call even for immediate values. An owner of immediates (tags, bits)
    stores straight into a leaf that exists; {!set} covers a run with no
    leaf yet, and any store of pointers, which pay the barrier anyway.

    Out of range means outside [\[0, frames)], tested by {!in_range} against
    [frames] itself, not against the directory's span: when [frames] is not
    a multiple of {!leaf_size}, the tail of the last leaf is not
    addressable. Owners test {!in_range} before every store and decide what
    an out-of-range store does (ignore or raise). No store lands outside
    [frames], so an out-of-range read that the directory does cover sees
    the default too. *)

val leaf_size : int
(** 512. A leaf (or directory) of 512 words is above the minor heap's
    largest block, so leaves go straight to the major heap and add no
    minor words. *)

val in_range : frames:int -> int -> bool
(** [in_range ~frames pfn] is [0 <= pfn < frames]. *)

val leaf_index : int -> int
(** [pfn land (leaf_size - 1)]. *)

val leaf : 'a array array -> empty:'a array -> int -> 'a array
(** The leaf holding [pfn]'s entry, at {!leaf_index}: [empty] when the
    run has no leaf of its own (including any pfn the directory does not
    cover). A store may go straight into any leaf but [empty]. *)

val empty_leaf : 'a -> 'a array
(** A fresh leaf of [leaf_size] copies of the default. Make one per table
    type, once, and never write to it: the default is its first entry. *)

val empty_dir : 'a array array
(** The directory of a table nothing was stored into. *)

val set :
  'a array array -> frames:int -> empty:'a array -> int -> 'a -> 'a array array
(** [set dir ~frames ~empty pfn v] stores [v] for [pfn], which must be
    [in_range ~frames], and returns the directory that now holds it: [dir]
    itself unless [pfn]'s run was not covered and a non-default [v] made it
    grow. The first store of a non-default value (tested by identity) into
    a run gives its slot its own copy of [empty]; storing the default where
    there is no leaf stores nothing. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a array array -> empty:'a array -> 'acc
(** Folds over the entries of allocated leaves only, in pfn order. The
    empty leaf holds only the default, so a fold that ignores the default
    sees every non-default entry. *)
