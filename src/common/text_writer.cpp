#include "common/text_writer.hpp"

#include <ostream>

namespace autopipe::trace {

TextWriter::TextWriter(std::ostream& os)
    : os_(os), buffer_(new char[kBufferBytes]) {}

void TextWriter::flush() {
  if (used_ == 0) return;
  os_.write(buffer_.get(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

TextWriter& TextWriter::put_slow(std::string_view text) {
  flush();
  if (text.size() <= kBufferBytes) return *this << text;
  os_.write(text.data(), static_cast<std::streamsize>(text.size()));
  return *this;
}

}  // namespace autopipe::trace
