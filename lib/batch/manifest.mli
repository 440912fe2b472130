(** Batch manifests: one synthesis job per line.

    {v
    # comments and blank lines are skipped
    diffeq --cs 4
    examples/data/fir4.dfg --cs 8 --style 2 --cse
    ewf --clock 100 --inject hang      # fault injection, per job
    v}

    The first token is a DFG file, a behavioural [.beh] file, or a
    built-in example name; the rest are the familiar [synth] option
    flags plus [--inject FAULT] (artifact corruptions {e and} the
    process faults [hang] / [segv] — the latter are what the
    batch-containment CI job plants). Malformed lines and values out of
    their {!Harness.Setting} range are [batch.manifest] input errors with
    a file:line span. A {!descr} parses back to the same entry. *)

type entry = {
  e_line : int;  (** 1-based manifest line, for spans and job labels. *)
  e_spec : string;  (** DFG file / builtin name. *)
  e_options : Harness.Driver.options;
  e_fault : Harness.Fault.t option;
}

val descr : entry -> string
(** Human label: spec + flags (+ fault), e.g.
    ["diffeq --cs 4 --inject hang"]. *)

val load_graph : string -> (Dfg.Graph.t, Diag.t) result
(** Resolve a spec the way the CLI does: an existing file is parsed
    ([.beh] through the frontend), otherwise the built-in example of
    that name; unknown specs are an [io.no-such-input] error. *)

val words : string -> string list
(** The words of a line, split on blanks, up to a ['#'] comment. *)

val parse_line :
  file:string -> line:int -> string -> (entry option, Diag.t) result
(** [Ok None] for blank/comment lines. *)

val parse_file : string -> (entry list, Diag.t) result
