module mha/benchmark

go 1.22

require mha v0.0.0

replace mha => ../
