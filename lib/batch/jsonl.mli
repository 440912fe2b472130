(** Minimal JSON values, and the JSONL store behind the batch journal
    and the explore cache.

    A store is JSON Lines: one object per record, written with a single
    [write] and fsynced, parsed back on [--resume]. This module is
    deliberately tiny — just enough JSON to round-trip our own records
    without an external dependency. Strings are escaped with
    {!Diag.json_string}; numbers are OCaml [int]s and [float]s. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (no newlines, ever — one record must stay
    one journal line). *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, trailing
    garbage is an error. *)

val default_max_document_bytes : int
(** 1 MiB — the default cap for {!parse_bounded} and the daemon's frame
    decoder. *)

val parse_bounded : ?max_bytes:int -> string -> (t, Diag.t) result
(** {!parse} behind a byte ceiling: documents over [max_bytes] are
    rejected with a typed [batch.frame-too-large] input error {e before}
    any parsing work, so untrusted inputs (socket frames, oversized
    journal lines) cannot buffer unboundedly; parse failures become
    [batch.jsonl] errors. *)

(** Accessors; all return [None] on a type or key mismatch. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] also accepts [Int]. *)

val str : string -> t -> string option
(** [str key obj] = [member key obj |> to_str], and similarly below. *)

val int : string -> t -> int option
val float : string -> t -> float option

(** {2 The store}

    One record per line, appended whole and fsynced. A crash can leave
    only a torn last line: {!load} drops it and {!open_writer} cuts it
    off, so the next record starts on a line of its own. Appends and the
    cut hold an exclusive [lockf] on the file, so several processes may
    append to one store. *)

val write_all : Unix.file_descr -> string -> (unit, Unix.error) result
(** Write every byte, one [write(2)] at a time, restarting on EINTR. *)

type writer

val open_writer : code:string -> string -> (writer, Diag.t) result
(** Open (create) for appending and cut a torn last line. A path that
    cannot be opened is a [code] input error. [code] also types the
    failures of {!append}. *)

val append : writer -> string -> (unit, Diag.t) result
(** Append one line (the newline is added) and fsync. A failed write or
    fsync is a typed error, never an uncaught [Unix_error]. *)

val close : writer -> unit

val load :
  code:string -> what:string -> string -> (t -> ('a, string) result) ->
  ('a list, Diag.t) result
(** Decode every whole line, in file order. A missing file is an empty
    store; a torn last line is dropped. A path that cannot be read is a
    [code] input error without a span; a line that does not decode is a
    [code] input error at that line ("corrupt [what]: ..."). *)
