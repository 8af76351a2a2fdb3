package simeng

// RVLoop exposes the RISC-V counting-loop fixture to the external
// test package, whose tests import telemetry (which imports simeng).
var RVLoop = rvLoop
