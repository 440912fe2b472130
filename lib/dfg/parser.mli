(** Textual DFG format, so workloads can live in data files and the CLI can
    operate on user designs.

    Grammar (one declaration per line; [#] starts a comment):
    {v
    input  <name> <name> ...
    range  <value> <lo> <hi>
    width  <value> <bits>
    <name> = <op> <arg> [<arg>] [@ <guard> ...]
    v}
    where [<op>] is an {!Op.kind} mnemonic or symbol ([mul] or [*]), and a
    guard is a condition value name, prefixed with [!] for the false arm.
    [range]/[width] lines annotate a declared value for the range analysis
    ({!Graph.Builder.declare_range}, {!Graph.Builder.declare_width}) and may
    appear before or after the value's declaration.
    Lines may end in LF or CRLF. Example:
    {v
    input x dx three
    range x -128 127
    m1 = * three x
    s1 = + m1 dx @ !c
    width s1 16
    v}

    Rejections are typed diagnostics: word-level errors (unknown operation,
    arity mismatch, unresolved operand, duplicate definition) carry a
    line/column span pointing at the offending word; whole-graph errors
    (cycles, guard scoping) are the builder's span-less [graph.invalid]. *)

val parse : string -> (Graph.t, Diag.t) result

val parse_file : string -> (Graph.t, Diag.t) result
(** Like {!parse}; diagnostics carry the file name, and an unreadable file
    is an [io.read] input diagnostic. *)

val to_source : Graph.t -> string
(** Render a graph back to the textual format; [parse (to_source g)]
    reconstructs an identical graph. *)
