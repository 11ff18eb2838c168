module tsppr/bench

go 1.22

require tsppr v0.0.0

replace tsppr => ../
