(** Typed diagnostics for the synthesis pipeline.

    Library code reports failures as values of {!t} instead of bare strings,
    [failwith] or [exit]: a stable machine-readable [code], a [category]
    that fixes the process exit code, a severity, a human message and an
    optional source span. The CLI renders them as text or JSON
    ([--json-errors]); the fuzz harness classifies them to tell expected
    infeasibility apart from internal defects. *)

type severity = Error | Warning

type category =
  | Usage  (** Bad command line; exit code 2. *)
  | Input  (** Malformed or missing user input; exit code 3. *)
  | Infeasible
      (** Well-formed problem with no solution under the given constraints
          (time budget below the critical path, unit caps too tight);
          exit code 4. *)
  | Internal
      (** A bug: exhausted internal budgets, broken invariants; exit
          code 5. *)
  | Partial
      (** A batch ran to completion but some jobs failed (timed out,
          exceeded the heap ceiling, crashed, or reported violations)
          while others completed; exit code 6. *)
  | Unavailable
      (** A transient service condition: the daemon shed the request under
          load or is draining. Not the client's fault and not a bug —
          retry later (responses carry a retry-after hint); exit code 7. *)

(** Half-open source region; columns are 1-based, [end_col] points one past
    the last character. A point span has [end_line = line] and
    [end_col = col + 1]. *)
type span = { line : int; col : int; end_line : int; end_col : int }

type t = {
  code : string;  (** Stable dotted identifier, e.g. ["parse.unknown-op"]. *)
  category : category;
  severity : severity;
  message : string;
  span : span option;
  file : string option;
}

val point : line:int -> col:int -> span
(** Span covering a single character. *)

val span_of_word : line:int -> col:int -> string -> span
(** Span covering [word] starting at [line:col]. *)

val make :
  ?severity:severity -> ?span:span -> ?file:string -> category ->
  code:string -> string -> t

val usage : ?span:span -> ?file:string -> code:string -> string -> t
val input : ?span:span -> ?file:string -> code:string -> string -> t
val infeasible : ?code:string -> string -> t
val internal : ?code:string -> string -> t
val partial : ?code:string -> string -> t
val unavailable : ?code:string -> string -> t

val makef :
  ?severity:severity -> ?span:span -> ?file:string -> category ->
  code:string -> ('a, unit, string, t) format4 -> 'a
(** {!make} with a printf-style message. *)

val with_file : string -> t -> t
(** Attach the originating file name (kept if already set). *)

val prefix : string -> t -> t
(** Prepend context to the message, keeping code and category. *)

val message : t -> string

val exit_code : t -> int
(** 2 = usage, 3 = input, 4 = infeasible, 5 = internal, 6 = partial
    batch failure, 7 = transient service unavailability. *)

val category_name : category -> string

val category_of_name : string -> category option
(** Inverse of {!category_name}; used when diagnostics are read back
    from a batch journal. *)

val is_bug : t -> bool
(** [true] only for {!Internal} diagnostics — the ones the fuzz harness
    counts as defects. *)

val to_string : t -> string
(** One-line human rendering:
    ["error[parse.unknown-op] foo.dfg:3:5: unknown operation \"fma\""]. *)

val pp : Format.formatter -> t -> unit

val json_string : string -> string
(** Quote and escape a string as a JSON literal — shared by the few callers
    that wrap diagnostics in richer JSON documents. *)

val to_json : t -> string
(** One JSON object with [code], [category], [severity], [message] and,
    when present, [file] and [span] fields. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects. *)
