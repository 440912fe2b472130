(** Value-change-dump (VCD) export of a machine run — open the synthesised
    design's execution in GTKWave or any waveform viewer.

    One timescale unit per control step; signals: the FSM state counter,
    every register, and every ALU output wire (shown as [x] in steps where
    the unit is idle). *)

val emit :
  ?design_name:string -> Rtl.Datapath.t -> Machine.run_result -> string
(** Render the recorded trace as VCD text. *)

val write_file :
  path:string -> ?design_name:string -> Rtl.Datapath.t -> Machine.run_result ->
  (unit, Diag.t) result
(** Write {!emit}'s text to [path]; a file that cannot be written is a
    [vcd.write] input error. *)
