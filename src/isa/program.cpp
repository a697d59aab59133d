#include "isa/program.hpp"

#include <cstdio>
#include <sstream>

namespace gpf::isa {

std::string disassemble(std::uint64_t word) {
  const DecodeResult d = decode(word);
  if (!d.ok) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), ".invalid 0x%016llx",
                  static_cast<unsigned long long>(word));
    return buf;
  }
  const Instruction& in = d.instr;
  std::ostringstream os;
  if (in.guard_pred != kPT || in.guard_neg)
    os << '@' << (in.guard_neg ? "!" : "") << 'P' << int(in.guard_pred) << ' ';
  os << name_of(in.op);
  if (in.op == Op::LD || in.op == Op::ST) {
    static const char* space_names[] = {"global", "shared", "const", "local"};
    os << '.' << space_names[static_cast<int>(in.space)];
  }

  auto reg = [](std::uint8_t r) {
    if (r == kRZ) return std::string("RZ");
    std::string s = "R";
    s += std::to_string(int(r));
    return s;
  };

  switch (in.op) {
    case Op::NOP: case Op::EXIT: case Op::BAR:
      break;
    case Op::BRA: case Op::SSY:
      os << " " << in.imm;
      break;
    case Op::S2R:
      os << " " << reg(in.rd) << ", SR" << int(in.rs1);
      break;
    case Op::LD:
      os << " " << reg(in.rd) << ", [" << reg(in.rs1) << "+" << in.imm << "]";
      break;
    case Op::ST:
      os << " [" << reg(in.rs1) << "+" << in.imm << "], " << reg(in.rd);
      break;
    default: {
      if (writes_predicate(in.op))
        os << " P" << int(in.rd & 0x7);
      else if (writes_register(in.op))
        os << " " << reg(in.rd);
      const int srcs = num_sources(in.op);
      for (int s = 0; s < srcs; ++s) {
        const bool last = s == srcs - 1;
        os << ", ";
        if (last && in.use_imm)
          os << "0x" << std::hex << in.imm << std::dec;
        else
          os << reg(s == 0 ? in.rs1 : (s == 1 ? in.rs2 : in.rs3));
      }
      if (in.op == Op::SEL) os << " ?P" << int(in.rs3 & 0x7);
      break;
    }
  }
  return os.str();
}

std::string disassemble(const Program& prog) {
  std::ostringstream os;
  os << "// kernel " << prog.name << "  regs=" << prog.regs_per_thread
     << " shared=" << prog.shared_words << "\n";
  for (std::size_t pc = 0; pc < prog.words.size(); ++pc)
    os << pc << ":\t" << disassemble(prog.words[pc]) << "\n";
  return os.str();
}

}  // namespace gpf::isa
